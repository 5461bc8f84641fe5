package bench

import (
	"fmt"

	"herosign/internal/core"
	"herosign/internal/cpuref"
	"herosign/internal/gpu/device"
	"herosign/internal/ptx"
	"herosign/internal/spx/params"
)

var kernelNames = []string{"FORS_Sign", "TREE_Sign", "WOTS+_Sign"}

// Table1 regenerates the parameter-set table.
func (s *Suite) Table1() (*Table, error) {
	t := &Table{
		ID: "table1", Title: "SPHINCS+-f parameter sets (paper Table I)",
		Header: []string{"Scheme", "n", "h", "d", "log(t)", "k", "w", "sig bytes"},
	}
	for _, p := range params.FastSets() {
		t.Rows = append(t.Rows, []string{
			p.Name, d0(int64(p.N)), d0(int64(p.H)), d0(int64(p.D)),
			d0(int64(p.LogT)), d0(int64(p.K)), d0(int64(p.W)), d0(int64(p.SigBytes)),
		})
	}
	return t, nil
}

// Table2 regenerates the baseline time breakdown: per-kernel time and idle
// time for one Block=1024 batch.
func (s *Suite) Table2() (*Table, error) {
	t := &Table{
		ID: "table2", Title: "Baseline time breakdown, ms (paper Table II)",
		Header: []string{"Set", "FORS", "Idle", "MSS(TREE)", "WOTS+",
			"paper FORS", "paper Idle", "paper MSS", "paper WOTS+"},
		Notes: []string{"modeled on " + s.Dev.Name + "; paper columns: measured TCAS-SPHINCSp"},
	}
	for _, p := range params.FastSets() {
		res, err := s.measure(p, core.Baseline(), 0, nil)
		if err != nil {
			return nil, err
		}
		pp := paperTable2[p.Name]
		t.Rows = append(t.Rows, []string{
			p.Name,
			f2(res.Kernels["FORS_Sign"].DurationUs / 1000),
			f2(res.IdleUs / 1000),
			f2(res.Kernels["TREE_Sign"].DurationUs / 1000),
			f2(res.Kernels["WOTS+_Sign"].DurationUs / 1000),
			f2(pp.FORS), f2(pp.Idle), f2(pp.MSS), f2(pp.WOTS),
		})
	}
	return t, nil
}

// Table3 regenerates the baseline 128f kernel profile (occupancies and
// registers per thread).
func (s *Suite) Table3() (*Table, error) {
	p := params.SPHINCSPlus128f
	res, err := s.measure(p, core.Baseline(), 0, nil)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "table3", Title: "Baseline kernel profile, SPHINCS+-128f (paper Table III)",
		Header: []string{"Metric", "FORS_Sign", "TREE_Sign", "WOTS+_Sign"},
		Notes: []string{
			"paper: warp occ 17/25/46%, theoretical 66.67/25/52.08%, regs 64/128/72",
		},
	}
	row := func(name string, get func(k string) string) {
		t.Rows = append(t.Rows, []string{name,
			get("FORS_Sign"), get("TREE_Sign"), get("WOTS+_Sign")})
	}
	row("Warp Occupancy %", func(k string) string { return f2(res.Kernels[k].AchievedOccupancyPct) })
	row("Theoretical Occupancy %", func(k string) string { return f2(res.Kernels[k].Occ.TheoreticalPct) })
	row("Registers Per Thread", func(k string) string { return d0(int64(res.Kernels[k].RegsPerThread)) })
	return t, nil
}

// Table4 regenerates the Tree Tuning search results.
func (s *Suite) Table4() (*Table, error) {
	t := &Table{
		ID: "table4", Title: "Tree Tuning search results (paper Table IV)",
		Header: []string{"Set", "Shared Util", "Thread Util", "F", "mode", "paper"},
	}
	paper := map[string]string{
		"SPHINCS+-128f": "0.6875/0.6875/F=3",
		"SPHINCS+-192f": "0.75/0.75/F=2",
		"SPHINCS+-256f": "Relax_FORS",
	}
	for _, p := range params.FastSets() {
		sg, err := s.signer(p, core.AllFeatures(), nil)
		if err != nil {
			return nil, err
		}
		r := sg.Tuning()
		mode := "standard"
		if r.Relax {
			mode = fmt.Sprintf("relax(L=%d)", r.LeavesPerThread)
		}
		t.Rows = append(t.Rows, []string{
			p.Name, f4(r.SharedUtil), f4(r.ThreadUtil), d0(int64(r.F)), mode, paper[p.Name],
		})
	}
	return t, nil
}

// Table5 regenerates the adaptive PTX/native selection.
func (s *Suite) Table5() (*Table, error) {
	t := &Table{
		ID: "table5", Title: "PTX branch selection (paper Table V; ok = PTX, x = native)",
		Header: []string{"Set", "FORS_Sign", "TREE_Sign", "WOTS+_Sign", "paper"},
	}
	paper := map[string]string{
		"SPHINCS+-128f": "ok x x",
		"SPHINCS+-192f": "ok x x",
		"SPHINCS+-256f": "ok ok ok",
	}
	mark := func(v ptx.Variant) string {
		if v == ptx.PTX {
			return "ok"
		}
		return "x"
	}
	for _, p := range params.FastSets() {
		sg, err := s.signer(p, core.AllFeatures(), nil)
		if err != nil {
			return nil, err
		}
		sel, err := sg.Selection(s.key(p))
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			p.Name, mark(sel[ptx.FORSSign]), mark(sel[ptx.TREESign]), mark(sel[ptx.WOTSSign]),
			paper[p.Name],
		})
	}
	return t, nil
}

// Table6 regenerates the bank-conflict comparison at Block = 1.
func (s *Suite) Table6() (*Table, error) {
	t := &Table{
		ID: "table6", Title: "Shared-memory bank conflicts, Block = 1 (paper Table VI)",
		Header: []string{"Set", "Kernel", "Base Load", "Base Store", "Pad Load", "Pad Store"},
		Notes: []string{
			"counts cover reduction-tree traffic; the paper's Nsight counts also include",
			"hash-internal shared accesses, so absolute magnitudes differ — the shape",
			"(large without padding, near zero with) is the reproduced result",
		},
	}
	base := core.Features{MMTP: true, Fusion: true, PTX: true, HybridMem: true}
	padded := base
	padded.FreeBank = true
	for _, p := range params.FastSets() {
		sgB, err := s.signer(p, base, nil)
		if err != nil {
			return nil, err
		}
		sgP, err := s.signer(p, padded, nil)
		if err != nil {
			return nil, err
		}
		rb, err := sgB.SignBatch(s.key(p), [][]byte{[]byte("table6-block1")})
		if err != nil {
			return nil, err
		}
		rp, err := sgP.SignBatch(s.key(p), [][]byte{[]byte("table6-block1")})
		if err != nil {
			return nil, err
		}
		for _, k := range []string{"FORS_Sign", "TREE_Sign"} {
			b := rb.Kernels[k].Shmem
			q := rp.Kernels[k].Shmem
			t.Rows = append(t.Rows, []string{
				p.Name, k,
				d0(b.LoadConflicts), d0(b.StoreConflicts),
				d0(q.LoadConflicts), d0(q.StoreConflicts),
			})
		}
	}
	return t, nil
}

// Table7 regenerates the platform catalog.
func (s *Suite) Table7() (*Table, error) {
	t := &Table{
		ID: "table7", Title: "GPU platforms (paper Table VII)",
		Header: []string{"GPU", "Architecture", "SM Version", "Base Clock (MHz)", "SMs", "CUDA Cores"},
	}
	for _, d := range device.All() {
		t.Rows = append(t.Rows, []string{
			d.Name, d.Arch, fmt.Sprintf("SM%d", d.SMVersion),
			d0(int64(d.BaseClockMHz)), d0(int64(d.SMs)), d0(int64(d.CUDACores())),
		})
	}
	return t, nil
}

// Table8 regenerates the per-kernel comparison between baseline and
// HERO-Sign.
func (s *Suite) Table8() (*Table, error) {
	t := &Table{
		ID: "table8", Title: "Kernel performance, Block = 1024 (paper Table VIII)",
		Header: []string{"Set", "Kernel",
			"Base KOPS", "Hero KOPS", "Speedup", "paper speedup",
			"Base Occ%", "Hero Occ%", "Base Cmp%", "Hero Cmp%", "Base Mem%", "Hero Mem%"},
	}
	heroF := core.AllFeatures()
	heroF.Graph = false // per-kernel metrics are graph-independent
	for _, p := range params.FastSets() {
		rb, err := s.measure(p, core.Baseline(), 0, nil)
		if err != nil {
			return nil, err
		}
		rh, err := s.measure(p, heroF, 0, nil)
		if err != nil {
			return nil, err
		}
		for _, k := range kernelNames {
			b, h := rb.Kernels[k], rh.Kernels[k]
			pp := paperTable8[p.Name][k]
			t.Rows = append(t.Rows, []string{
				p.Name, k,
				f1(rb.KernelKOPS[k]), f1(rh.KernelKOPS[k]),
				f2x(rh.KernelKOPS[k] / rb.KernelKOPS[k]),
				f2x(pp.Hero / pp.Baseline),
				f2(b.AchievedOccupancyPct), f2(h.AchievedOccupancyPct),
				f2(b.ComputeThroughputPct), f2(h.ComputeThroughputPct),
				f2(b.MemoryThroughputPct), f2(h.MemoryThroughputPct),
			})
		}
	}
	return t, nil
}

// Table9 regenerates the cross-platform comparison. The FPGA and ASIC
// comparators are closed hardware: their published numbers are reported as
// constants, and our modeled HERO-Sign throughput/PPS sits beside the
// paper's.
func (s *Suite) Table9() (*Table, error) {
	t := &Table{
		ID: "table9", Title: "GPU vs FPGA/ASIC (paper Table IX; PPS = TDP x time/signature, W*s)",
		Header: []string{"Set", "Hero KOPS", "Hero PPS", "paper KOPS", "paper PPS",
			"Berthet KOPS", "Amiet KOPS", "SPHINCSLET KOPS"},
	}
	for i, p := range params.FastSets() {
		res, err := s.measure(p, core.AllFeatures(), 0, nil)
		if err != nil {
			return nil, err
		}
		kops := res.ThroughputKOPS
		pps := s.Dev.TDPWatts / (kops * 1000)
		row := paperTable9[i]
		berthet := "n/a"
		if row.BerthetKOPS > 0 {
			berthet = fmt.Sprintf("%.5f", row.BerthetKOPS)
		}
		t.Rows = append(t.Rows, []string{
			p.Name, f2(kops), fmt.Sprintf("%.4f", pps),
			f2(row.HeroKOPS), fmt.Sprintf("%.3f", row.HeroPPS),
			berthet, f2(row.AmietKOPS), f2(row.SphincsletKOPS),
		})
	}
	return t, nil
}

// Table10 regenerates the CPU comparison: the paper's AVX2 constants
// against the modeled HERO-Sign throughput.
func (s *Suite) Table10() (*Table, error) {
	t := &Table{
		ID: "table10", Title: "CPU comparison (paper Table X)",
		Header: []string{"Set", "AVX2 1T KOPS", "AVX2 16T KOPS", "Hero KOPS", "Hero/AVX2-16T"},
	}
	for _, p := range params.FastSets() {
		gres, err := s.measure(p, core.AllFeatures(), 0, nil)
		if err != nil {
			return nil, err
		}
		avx := cpuref.PaperAVX2KOPS[p.Name]
		t.Rows = append(t.Rows, []string{
			p.Name, fmt.Sprintf("%.3f", avx.SingleThread), fmt.Sprintf("%.3f", avx.Threads16),
			f2(gres.ThroughputKOPS), f1(gres.ThroughputKOPS / avx.Threads16),
		})
	}
	return t, nil
}

// Table11 regenerates the compilation-time comparison from the nvcc model.
func (s *Suite) Table11() (*Table, error) {
	t := &Table{
		ID: "table11", Title: "Compilation time, s (paper Table XI)",
		Header: []string{"Set", "Baseline", "HERO-Sign", "Speedup",
			"paper Base", "paper Hero", "paper Speedup"},
	}
	heroSel := map[string]map[ptx.Kernel]ptx.Variant{
		"SPHINCS+-128f": {ptx.FORSSign: ptx.PTX, ptx.TREESign: ptx.Native, ptx.WOTSSign: ptx.Native},
		"SPHINCS+-192f": {ptx.FORSSign: ptx.PTX, ptx.TREESign: ptx.Native, ptx.WOTSSign: ptx.Native},
		"SPHINCS+-256f": {ptx.FORSSign: ptx.PTX, ptx.TREESign: ptx.PTX, ptx.WOTSSign: ptx.PTX},
	}
	for _, p := range params.FastSets() {
		base := ptx.BaselineBuild().CompileSec(p.N)
		hero := ptx.BuildPlan{Selection: heroSel[p.Name]}.CompileSec(p.N)
		pp := paperTable11[p.Name]
		t.Rows = append(t.Rows, []string{
			p.Name, f2(base), f2(hero), f2x(base / hero),
			f2(pp.Baseline), f2(pp.Hero), f2x(pp.Baseline / pp.Hero),
		})
	}
	return t, nil
}

// Fig11 regenerates the FORS_Sign optimization-step walk.
func (s *Suite) Fig11() (*Table, error) {
	t := &Table{
		ID: "fig11", Title: "FORS_Sign optimization steps, KOPS (paper Fig. 11)",
		Header: []string{"Set", "Step", "KOPS", "Step Speedup", "Cumulative", "paper KOPS"},
	}
	for _, p := range params.FastSets() {
		var base, prev float64
		for i, step := range core.OptimizationSteps() {
			res, err := s.measure(p, step.Feats, 0, nil)
			if err != nil {
				return nil, err
			}
			kops := res.KernelKOPS["FORS_Sign"]
			if i == 0 {
				base, prev = kops, kops
			}
			name := step.Name
			if name == "+FS" && res.Kernels["FORS_Sign"].SharedMemBytes > s.Dev.StaticSharedMemPerBlock {
				name = "+FS(Relax_FORS)"
			}
			t.Rows = append(t.Rows, []string{
				p.Name, name, f1(kops), f2x(kops / prev), f2x(kops / base),
				f1(paperFig11[p.Name][i]),
			})
			prev = kops
		}
	}
	return t, nil
}

// Fig12 regenerates the end-to-end throughput and launch-latency chart.
func (s *Suite) Fig12() (*Table, error) {
	t := &Table{
		ID: "fig12", Title: "End-to-end KOPS and launch latency (paper Fig. 12)",
		Header: []string{"Set", "Config", "KOPS", "LaunchOverhead us", "Idle us",
			"paper KOPS", "paper latency us"},
	}
	configs := []struct {
		name  string
		feats core.Features
		kops  int // index into paperFig12KOPS
		lat   int // index into paperFig12LatencyUs, -1 when not reported
	}{
		{"Baseline (no Graph)", core.Baseline(), 0, 0},
		{"Baseline (with Graph)", func() core.Features { f := core.Baseline(); f.Graph = true; return f }(), 1, -1},
		{"HERO-Sign (no Graph)", func() core.Features { f := core.AllFeatures(); f.Graph = false; return f }(), 2, 1},
		{"HERO-Sign (with Graph)", core.AllFeatures(), 3, 2},
	}
	for _, p := range params.FastSets() {
		for _, cfg := range configs {
			res, err := s.measure(p, cfg.feats, 0, nil)
			if err != nil {
				return nil, err
			}
			paperLat := "-"
			if cfg.lat >= 0 {
				paperLat = f2(paperFig12LatencyUs[p.Name][cfg.lat])
			}
			t.Rows = append(t.Rows, []string{
				p.Name, cfg.name, f2(res.ThroughputKOPS),
				f2(res.LaunchOverheadUs), f2(res.IdleUs),
				f2(paperFig12KOPS[p.Name][cfg.kops]), paperLat,
			})
		}
	}
	return t, nil
}

// Fig13 regenerates the block-size sensitivity sweep.
func (s *Suite) Fig13() (*Table, error) {
	t := &Table{
		ID: "fig13", Title: "Block-size sensitivity (paper Fig. 13)",
		Header: []string{"Set", "Block Size", "Baseline KOPS", "HERO KOPS", "Speedup"},
	}
	sizes := []int{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	for _, p := range params.FastSets() {
		for _, bs := range sizes {
			rb, err := s.measure(p, core.Baseline(), bs, nil)
			if err != nil {
				return nil, err
			}
			rh, err := s.measure(p, core.AllFeatures(), bs, nil)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				p.Name, d0(int64(bs)), f2(rb.ThroughputKOPS), f2(rh.ThroughputKOPS),
				f2x(rh.ThroughputKOPS / rb.ThroughputKOPS),
			})
		}
	}
	return t, nil
}

// Fig14 regenerates the cross-architecture comparison.
func (s *Suite) Fig14() (*Table, error) {
	t := &Table{
		ID: "fig14", Title: "Cross-architecture comparison, Block = 1024 (paper Fig. 14)",
		Header: []string{"GPU", "Set", "Baseline KOPS", "HERO KOPS", "Speedup"},
	}
	for _, d := range device.All() {
		for _, p := range params.FastSets() {
			rb, err := s.measure(p, core.Baseline(), 0, d)
			if err != nil {
				return nil, err
			}
			rh, err := s.measure(p, core.AllFeatures(), 0, d)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				d.Name, p.Name, f2(rb.ThroughputKOPS), f2(rh.ThroughputKOPS),
				f2x(rh.ThroughputKOPS / rb.ThroughputKOPS),
			})
		}
	}
	return t, nil
}

// InputSize regenerates the §IV-E3 input-length comparison. The paper
// finds throughput flat across 1–4 KB inputs because H_msg reduces any
// input to a fixed digest before the (fixed) tree workload. The model
// runs H_msg on the host and has no input-length term, so every length
// would measure the same configuration: one row per set stands for all.
func (s *Suite) InputSize() (*Table, error) {
	t := &Table{
		ID: "inputsize", Title: "Input-length sensitivity, Block = 1024 (paper §IV-E3)",
		Header: []string{"Set", "HERO KOPS", "Baseline KOPS", "Speedup"},
		Notes: []string{
			"paper: average speedups 1.30x/1.28x/1.45x over 1-4 KB inputs; workload constant in input length",
			"the model has no input-length term (H_msg runs on the host), so each row holds for every input length",
		},
	}
	for _, p := range params.FastSets() {
		rb, err := s.measure(p, core.Baseline(), 0, nil)
		if err != nil {
			return nil, err
		}
		rh, err := s.measure(p, core.AllFeatures(), 0, nil)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			p.Name, f2(rh.ThroughputKOPS), f2(rb.ThroughputKOPS),
			f2x(rh.ThroughputKOPS / rb.ThroughputKOPS),
		})
	}
	return t, nil
}
