package bench

import (
	"fmt"
	"sort"

	"herosign/internal/core"
	"herosign/internal/gpu/device"
	"herosign/internal/spx"
	"herosign/internal/spx/params"
)

// Suite runs experiments against one device model.
type Suite struct {
	Dev *device.Device
	// Batch is the grid size used for throughput experiments (the paper's
	// Block = 1024). Zero selects 1024.
	Batch int
	// Sample bounds functional execution per kernel launch; counters are
	// scaled (see sim.Engine). Zero selects 2.
	Sample int

	keys    map[string]*spx.PrivateKey
	signers map[string]*core.Signer
	results map[string]*core.BatchResult
}

// NewSuite builds a Suite for the device (nil selects the RTX 4090, the
// paper's primary platform).
func NewSuite(d *device.Device) *Suite {
	if d == nil {
		d = device.RTX4090
	}
	return &Suite{
		Dev:     d,
		Batch:   1024,
		Sample:  2,
		keys:    map[string]*spx.PrivateKey{},
		signers: map[string]*core.Signer{},
		results: map[string]*core.BatchResult{},
	}
}

func (s *Suite) key(p *params.Params) *spx.PrivateKey {
	if k, ok := s.keys[p.Name]; ok {
		return k
	}
	seed := func(tag byte) []byte {
		b := make([]byte, p.N)
		for i := range b {
			b[i] = byte(i*11) ^ tag
		}
		return b
	}
	k, err := spx.KeyFromSeeds(p, seed(0xA1), seed(0xB2), seed(0xC3))
	if err != nil {
		panic(err) // deterministic seeds over validated params cannot fail
	}
	s.keys[p.Name] = k
	return k
}

func featKey(f core.Features) string {
	return fmt.Sprintf("%t%t%t%t%t%t", f.MMTP, f.Fusion, f.PTX, f.HybridMem, f.FreeBank, f.Graph)
}

func (s *Suite) signer(p *params.Params, f core.Features, dev *device.Device) (*core.Signer, error) {
	if dev == nil {
		dev = s.Dev
	}
	key := p.Name + "/" + dev.Name + "/" + featKey(f)
	if sg, ok := s.signers[key]; ok {
		return sg, nil
	}
	sg, err := core.New(core.Config{Params: p, Device: dev, Features: f})
	if err != nil {
		return nil, err
	}
	s.signers[key] = sg
	return sg, nil
}

// measure runs a sampled timing batch. The model is deterministic, so a
// configuration several experiments share is simulated once per Suite.
func (s *Suite) measure(p *params.Params, f core.Features, batch int, dev *device.Device) (*core.BatchResult, error) {
	if dev == nil {
		dev = s.Dev
	}
	if batch == 0 {
		batch = s.Batch
	}
	key := fmt.Sprintf("%s/%s/%s/%d/%d", p.Name, dev.Name, featKey(f), batch, s.Sample)
	if res, ok := s.results[key]; ok {
		return res, nil
	}
	sg, err := s.signer(p, f, dev)
	if err != nil {
		return nil, err
	}
	res, err := sg.MeasureBatch(s.key(p), batch, s.Sample)
	if err != nil {
		return nil, err
	}
	s.results[key] = res
	return res, nil
}

// Experiment couples an id with its generator.
type Experiment struct {
	ID    string
	Title string
	Run   func(s *Suite) (*Table, error)
}

// Experiments lists every table and figure generator in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "SPHINCS+-f parameter sets", (*Suite).Table1},
		{"table2", "Baseline (TCAS-SPHINCSp) time breakdown", (*Suite).Table2},
		{"table3", "Baseline kernel profile, SPHINCS+-128f", (*Suite).Table3},
		{"table4", "Tree Tuning search results", (*Suite).Table4},
		{"table5", "PTX branch selection per kernel", (*Suite).Table5},
		{"table6", "Bank conflicts: baseline vs padding (Block = 1)", (*Suite).Table6},
		{"table7", "GPU platforms", (*Suite).Table7},
		{"table8", "Kernel performance: baseline vs HERO-Sign", (*Suite).Table8},
		{"table9", "Cross-platform comparison (GPU vs FPGA/ASIC)", (*Suite).Table9},
		{"table10", "CPU AVX2 comparison", (*Suite).Table10},
		{"table11", "Compilation time", (*Suite).Table11},
		{"fig11", "FORS_Sign optimization steps", (*Suite).Fig11},
		{"fig12", "End-to-end performance and launch latency", (*Suite).Fig12},
		{"fig13", "Block-size sensitivity", (*Suite).Fig13},
		{"fig14", "Cross-architecture comparison", (*Suite).Fig14},
		{"inputsize", "Input-length sensitivity (§IV-E3)", (*Suite).InputSize},
		{"ablation-alpha", "Tuner alpha sensitivity", (*Suite).AblationAlpha},
		{"ablation-subbatch", "Launch-group sensitivity", (*Suite).AblationSubBatch},
		{"ablation-streams", "Stream-count sensitivity", (*Suite).AblationStreams},
		{"profile", "Nsight-style kernel profiles", (*Suite).Profile},
		{"verify", "Batch verification & key generation", (*Suite).VerifyThroughput},
	}
}

// RunByID runs a single experiment.
func (s *Suite) RunByID(id string) (*Table, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e.Run(s)
		}
	}
	ids := make([]string, 0, 16)
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", id, ids)
}
