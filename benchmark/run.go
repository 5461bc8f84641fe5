package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"herosign/service"
)

// config is one invocation's arguments.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	short    bool
	outDir   string

	corruptExpected bool // test hook, see inputs.corruptExpected
}

// plan is how a run spends its time.
type plan struct {
	warm, window time.Duration // unmeasured warm-up, measured window
	setups       int           // untraced: set-ups timed, median reported
	ref, traced  time.Duration // traced: untraced reference window, traced window
	rung         time.Duration // traced: one service rung of the ladder
	scale        int           // traced: divides the ladder's iteration counts
}

func (c config) plan() plan {
	w := time.Duration(c.seconds * float64(time.Second))
	p := plan{warm: 2 * time.Second, window: w, setups: 5, scale: 1}
	if c.trace {
		p.warm = time.Second
	}
	if c.short {
		p.warm, p.setups, p.scale = p.warm/10, 2, 20
	}
	p.ref, p.traced, p.rung = w/5, min(w/4, 8*time.Second), w/10
	return p
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload. The first four fields are the line the
// driver reads; workload and trace are added where runs are collected.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Workload  string                 `json:"workload,omitempty"`
	Trace     bool                   `json:"trace,omitempty"`
}

// peakRSSMiB is VmHWM, the process's resident high-water mark.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

func printMetrics(w io.Writer, defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := map[string]metricValue{}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", d.Name, vals[d.Name], d.Unit)
		out[d.Name] = metricValue{vals[d.Name], d.Unit}
	}
	return out
}

// guardsHold reports whether every mustBeZero counter in vals reads 0.
func guardsHold(w io.Writer, vals map[string]float64) bool {
	ok := true
	for _, name := range mustBeZero {
		if vals[name] != 0 {
			fmt.Fprintf(w, "  GUARD: %s = %v, want 0\n", name, vals[name])
			ok = false
		}
	}
	return ok
}

// runWorkload runs one workload in this process: the untraced run gives the
// end-to-end metrics, the traced run the per-layer ones.
func runWorkload(c config, w io.Writer) (*result, error) {
	pl := c.plan()
	arrivals := 0
	if c.workload == wHTTPSign {
		secs := (pl.warm + pl.window).Seconds()
		if c.trace {
			secs = (2*pl.warm + pl.ref + pl.traced).Seconds()
		}
		arrivals = int(signRate*secs) + pl.setups + 16
	}
	in, err := genInputs(c.seed, c.workload, c.trace, arrivals, c.corruptExpected)
	if err != nil {
		return nil, err
	}
	if c.trace {
		return runTraced(c, pl, in, w)
	}

	var setupS []float64
	var e *env
	for i := 0; i < pl.setups; i++ {
		if e != nil {
			e.close()
		}
		start := time.Now()
		if e, err = setup(c.workload, in, nil); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	s := summarize(measure(e.spec, pl.warm, pl.window, e.op, nil))
	g := guards(e)
	e.close()
	res := &result{Attempted: s.attempted, Failed: s.failed + checkSigned(in, e.signed)}

	vals := map[string]float64{
		"ops_per_s": s.opsPerS, "lat_p50_ms": s.p50, "lat_p90_ms": s.p90,
		"ok_share":         1 - float64(res.Failed)/float64(max(res.Attempted, 1)),
		"alloc_kib_per_op": s.allocKiBPerOp, "peak_rss_mib": peakRSSMiB(), "setup_s": median(setupS),
	}
	fmt.Fprintf(w, "workload %s  seed %d  window %s  end-to-end (tracing off, best of %d window slices)\n",
		c.workload, c.seed, pl.window, windowSlices)
	res.Metrics = printMetrics(w, endToEnd, vals)
	fmt.Fprintf(w, "  %-40s %14.4f ms (ungated; %d requests, %d operations, %d failed: failed_share %.6f)\n",
		"client.lat_p99_ms", s.p99, s.latSamples, res.Attempted, res.Failed, 1-vals["ok_share"])
	fmt.Fprintf(w, "  %-40s %14.4f s\n", "client.inputgen_s", in.genTime.Seconds())
	res.Correct = res.Failed == 0 && s.attempted > 0
	if e.spec.rate > 0 {
		fmt.Fprintf(w, "  open loop: %d due, %d answered in the window, issued late p50 %.3f ms p90 %.3f ms\n",
			s.due, s.completedInWin, s.lateP50, s.lateP90)
		if float64(s.completedInWin) < 0.95*float64(s.due) {
			fmt.Fprintln(w, "  INVALID: fewer than 95% of the requests due were answered; the schedule was not kept")
			res.Correct = false
		}
	}
	res.Correct = guardsHold(w, g) && res.Correct
	if c.workload == wFleetVerify {
		fmt.Fprintf(w, "  %-40s %14.4f ratio\n", "remote.leaf_share_max", g["remote.leaf_share_max"])
	}
	return res, nil
}

// runTraced measures the workload for a short window with tracing off, again
// with spans recorded, then climbs the ladder.
func runTraced(c config, pl plan, in *inputs, w io.Writer) (*result, error) {
	tr := newTracer()
	e, err := setup(c.workload, in, tr)
	if err != nil {
		return nil, err
	}
	ref := summarize(measure(e.spec, pl.warm, pl.ref, e.op, nil))
	var edges []service.Stats // at the traced window's start and end
	tr.on.Store(true)
	s := summarize(measure(e.spec, pl.warm, pl.traced, e.op, func() { edges = append(edges, statsOf(e.svc)) }))
	g := guards(e)
	e.close()
	res := &result{Attempted: ref.attempted + s.attempted, Failed: ref.failed + s.failed + checkSigned(in, e.signed)}

	l := &ladder{in: in, tr: tr, scale: pl.scale, rung: pl.rung, m: map[string]float64{}}
	if err := l.climb(); err != nil {
		return nil, err
	}
	res.Failed += l.failed
	m := l.m
	a, b := edges[0], edges[1]
	m["service.batches"] = float64(b.TotalBatches - a.TotalBatches)
	m["service.rejected"] = float64(b.RejectedTotal - a.RejectedTotal)
	m["service.shed"] = float64(b.ShedTotal - a.ShedTotal)
	if m["service.batches"] > 0 {
		m["service.batch_size_mean"] = float64(b.TotalMessages-a.TotalMessages) / m["service.batches"]
	}
	m["service.backend_busy_share"] = (b.ModeledGPUSeconds - a.ModeledGPUSeconds) / pl.traced.Seconds()
	m["service.pending_at_end"] = g["service.pending_at_end"]
	m["client.inputgen_s"] = in.genTime.Seconds()
	m["client.late_p50_ms"], m["client.late_p90_ms"] = s.lateP50, s.lateP90
	m["client.lat_p99_ms"], m["client.samples"] = s.p99, float64(s.latSamples)
	if ref.opsPerS > 0 {
		m["client.trace_overhead_share"] = 1 - s.opsPerS/ref.opsPerS
		// Where the ladder has a rung that is this workload, the rung and
		// the workload's own window must tell the same time per operation.
		if rung := map[string]string{wHTTPVerify: "http", wFleetVerify: "hop"}[c.workload]; rung != "" {
			m["client.ladder_service_gap_share"] = gap(l.rungUs[rung], 1e6/ref.opsPerS)
		}
	}

	fmt.Fprintf(w, "workload %s  seed %d  per-layer (traced window %s, %d requests; ladder over the same inputs)\n",
		c.workload, c.seed, pl.traced, s.latSamples)
	res.Metrics = printMetrics(w, perLayer, m)
	fmt.Fprintf(w, "  service rungs, us per operation at %d clients: backend %.1f -> submit %.1f -> http %.1f -> hop %.1f\n",
		clients(), l.rungUs["backend"], l.rungUs["submit"], l.rungUs["http"], l.rungUs["hop"])
	res.Correct = guardsHold(w, m) && res.Failed == 0 && res.Attempted > 0
	for _, name := range []string{"client.ladder_sign_gap_share", "client.ladder_verify_gap_share"} {
		if m[name] > 0.10 {
			fmt.Fprintf(w, "  LADDER: %s = %.3f, the rungs do not sum to the cpuref figure within 10%%\n", name, m[name])
		}
	}
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(c.outDir, "trace-"+c.workload+".json")
	if err := tr.write(path, c.workload, c.seed); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "  trace: %s\n", path)
	return res, nil
}
