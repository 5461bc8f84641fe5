package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark's own code into a layer.
// Spans of one request share Req; Parent is the span that caused this one
// (0 for a root). N is a count attached at the boundary: a batch size, the
// iterations of a timed loop, the operations a request carried.
type span struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent,omitempty"`
	Req     int64   `json:"req,omitempty"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	N       int     `json:"n,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer, or one
// switched off, records nothing: the untraced windows run the same code.
type tracer struct {
	on    atomic.Bool
	next  atomic.Int64
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newReq mints a request identifier.
func (t *tracer) newReq() int64 {
	if t == nil || !t.on.Load() {
		return 0
	}
	return t.next.Add(1)
}

func nopEnd(int) {}

// begin opens a span and returns its id and the function that closes it.
func (t *tracer) begin(req, parent int64, name string) (int64, func(n int)) {
	if t == nil || !t.on.Load() {
		return 0, nopEnd
	}
	id, start := t.next.Add(1), time.Since(t.epoch)
	return id, func(n int) {
		end := time.Since(t.epoch)
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
			StartUs: float64(start) / 1e3, EndUs: float64(end) / 1e3, N: n})
		t.mu.Unlock()
	}
}

// layerTime is the per-name roll-up written beside the spans.
type layerTime struct {
	Spans   int     `json:"spans"`
	TotalUs float64 `json:"total_us"`
	// SelfUs is each span's duration minus the part of it its child spans
	// cover (overlapping children counted once).
	SelfUs float64 `json:"self_us"`
}

// selfTimes rolls spans up by name.
func selfTimes(spans []span) map[string]*layerTime {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*layerTime{}
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartUs < kids[j].StartUs })
		covered, edge := 0.0, s.StartUs
		for _, k := range kids {
			lo, hi := max(k.StartUs, edge), min(k.EndUs, s.EndUs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		lt.Spans++
		lt.TotalUs += s.EndUs - s.StartUs
		lt.SelfUs += s.EndUs - s.StartUs - covered
	}
	return out
}

// traceFile is the shape of out/trace-<workload>.json.
type traceFile struct {
	Workload string                `json:"workload"`
	Seed     uint64                `json:"seed"`
	Layers   map[string]*layerTime `json:"layers"`
	Spans    []span                `json:"spans"`
}

func (t *tracer) write(path, workload string, seed uint64) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartUs < spans[j].StartUs })
	b, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Layers: selfTimes(spans), Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
