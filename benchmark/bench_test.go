package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d
}

// BENCHMARK.json and spec.go must declare the same names, units, directions
// and bounds: none missing, none undeclared.
func TestDeclarationMatchesSpec(t *testing.T) {
	d := loadDeclared(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var wl []string
	for _, w := range d.Workloads {
		wl = append(wl, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if strings.Join(wl, " ") != strings.Join(workloadNames, " ") {
		t.Errorf("workloads: declared %v, program runs %v", wl, workloadNames)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d declared, %d in spec.go", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: declared %+v, spec.go has %+v", kind, i, got[i], want[i])
			}
			if !name.MatchString(want[i].Name) {
				t.Errorf("%s name %q is outside the name rule", kind, want[i].Name)
			}
		}
	}
	same("end_to_end", d.EndToEnd, endToEnd)
	same("per_layer", d.PerLayer, perLayer)
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric name %q is used twice", m.Name)
		}
		seen[m.Name] = true
	}
	if d.RunSeconds < 15 {
		t.Errorf("run_seconds %d: the measured window is never below 15 s", d.RunSeconds)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	vals := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for q, want := range map[float64]float64{0.5: 5, 0.9: 9, 0.99: 10, 1: 10, 0.1: 1} {
		if got := percentile(vals, q); got != want {
			t.Errorf("percentile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := median(vals); got != 5.5 {
		t.Errorf("median of 1..10 = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
	if percentile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Error("an empty sample must read 0")
	}
}

// A 5 s window of back-to-back 100 ms requests of 10 operations, with one
// second stalled: the best slice does not see the stall, and a request
// straddling a slice boundary is shared between the two slices (were it
// given whole to one, that slice would read 110 or 120 operations a second).
func TestSummarizeBestSlice(t *testing.T) {
	from := time.Unix(1000, 0)
	w := window{from: from, to: from.Add(5 * time.Second), allocBytes: 500 * 1024}
	at := from.Add(-50 * time.Millisecond) // the first request straddles the window start
	for at.Before(w.to) {
		d := 100 * time.Millisecond
		if at.After(from.Add(2*time.Second)) && at.Before(from.Add(3*time.Second)) {
			d = 500 * time.Millisecond // the stalled slice
		}
		w.samples = append(w.samples, sample{start: at, end: at.Add(d), attempted: 10, ok: 10})
		at = at.Add(d)
	}
	s := summarize(w)
	if math.Abs(s.opsPerS-100) > 0.5 {
		t.Errorf("ops_per_s = %v, want an unstalled slice's 100", s.opsPerS)
	}
	if s.p50 != 100 || s.p90 != 100 {
		t.Errorf("p50/p90 = %v/%v ms, want 100/100", s.p50, s.p90)
	}
	if s.p99 != 500 {
		t.Errorf("whole-window p99 = %v ms, want the stall's 500", s.p99)
	}
	if s.failed != 0 || s.attempted == 0 || s.allocKiBPerOp <= 0 {
		t.Errorf("counts: %+v", s)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", StartUs: 0, EndUs: 100},
		{ID: 2, Parent: 1, Name: "handler", StartUs: 10, EndUs: 60},
		{ID: 3, Parent: 1, Name: "handler", StartUs: 50, EndUs: 80}, // overlaps span 2 by 10
		{ID: 4, Parent: 2, Name: "backend", StartUs: 20, EndUs: 40},
	}
	got := selfTimes(spans)
	if got["request"].SelfUs != 30 || got["handler"].SelfUs != 60 || got["backend"].SelfUs != 20 {
		t.Errorf("self times: request %v handler %v backend %v, want 30 60 20",
			got["request"].SelfUs, got["handler"].SelfUs, got["backend"].SelfUs)
	}
}

func TestCompareRefusesAnotherHost(t *testing.T) {
	a := fingerprint{CPU: "x", NProc: 2, SHABackend: "native"}
	for _, b := range []fingerprint{{CPU: "y", NProc: 2, SHABackend: "native"}, {CPU: "x", NProc: 4, SHABackend: "native"}, {CPU: "x", NProc: 2, SHABackend: "portable"}} {
		if a.comparable(b) == "" {
			t.Errorf("%+v and %+v must not be comparable", a, b)
		}
	}
	b := a
	b.Seed, b.Commit = 9, "other"
	if why := a.comparable(b); why != "" {
		t.Errorf("same host refused: %s", why)
	}
}

// lastLine runs the benchmark in this process and decodes its result line.
func lastLine(t *testing.T, args ...string) (result, int) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(append(args, "-short", "-out", t.TempDir()), &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("no result line (exit %d): %v\n%s%s", code, err, out.String(), errOut.String())
	}
	return r, code
}

func checkNames(t *testing.T, r result, defs []metricDef) {
	t.Helper()
	if len(r.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, %d declared", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			t.Errorf("declared metric %s was not emitted", d.Name)
		} else if m.Unit != d.Unit {
			t.Errorf("%s: unit %q emitted, %q declared", d.Name, m.Unit, d.Unit)
		}
	}
}

// The smoke run: every workload for a 1 s window, one of them traced too.
// Its numbers mean nothing; its names, units and correctness must hold.
func TestSmoke(t *testing.T) {
	for _, w := range workloadNames {
		r, code := lastLine(t, "-workload", w)
		if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: exit %d, correct %v, attempted %d, failed %d", w, code, r.Correct, r.Attempted, r.Failed)
		}
		checkNames(t, r, endToEnd)
		if r.Metrics["ok_share"].Value != 1 {
			t.Errorf("%s: ok_share = %v, want 1 (failed_share 0)", w, r.Metrics["ok_share"].Value)
		}
		for _, d := range endToEnd {
			if r.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: %s = %v; a gated metric is never 0", w, d.Name, r.Metrics[d.Name].Value)
			}
		}
	}
	r, code := lastLine(t, "-workload", wFleetVerify, "-trace", "1")
	if code != 0 || !r.Correct || r.Failed != 0 {
		t.Errorf("traced %s: exit %d, correct %v, failed %d", wFleetVerify, code, r.Correct, r.Failed)
	}
	checkNames(t, r, perLayer)
	for _, name := range mustBeZero {
		if r.Metrics[name].Value != 0 {
			t.Errorf("%s = %v, want 0", name, r.Metrics[name].Value)
		}
	}
}

// A wrong expectation must fail the run: one recorded verdict flipped on the
// verify side, one signature bit flipped on the sign side.
func TestWrongAnswerFailsTheRun(t *testing.T) {
	for _, w := range []string{wVerifyBatch, wSignBatch} {
		var out bytes.Buffer
		r, err := runWorkload(config{workload: w, seed: 1, seconds: 1, short: true, outDir: t.TempDir(), corruptExpected: true}, &out)
		if err != nil {
			t.Fatal(err)
		}
		if r.Correct || r.Failed == 0 || r.Metrics["ok_share"].Value >= 1 {
			t.Errorf("%s: correct %v, failed %d, ok_share %v: a wrong answer went unnoticed",
				w, r.Correct, r.Failed, r.Metrics["ok_share"].Value)
		}
	}
}
