package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// resultsFile is the shape of out/results.json.
type resultsFile struct {
	Host fingerprint `json:"host"`
	Runs []result    `json:"runs"`
}

func (rf *resultsFile) find(workload string, trace bool) *result {
	for i := range rf.Runs {
		if rf.Runs[i].Workload == workload && rf.Runs[i].Trace == trace {
			return &rf.Runs[i]
		}
	}
	return nil
}

// child runs one workload in a process of its own, so nothing else shares
// its heap or its cores, copies what it prints, and reads the result off its
// last line.
func child(c config, workload string, trace bool, stdout, stderr io.Writer) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", workload, "-seed", strconv.FormatUint(c.seed, 10),
		"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64), "-out", c.outDir, "-trace", "0",
	}
	if trace {
		args[len(args)-1] = "1"
	}
	if c.short {
		args = append(args, "-short")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(pipe)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Fprintln(stdout, last)
		}
		last = sc.Text()
	}
	runErr := cmd.Wait()
	res := &result{}
	if err := json.Unmarshal([]byte(last), res); err != nil {
		fmt.Fprintln(stdout, last)
		return nil, fmt.Errorf("%s: no result line (%v)", workload, runErr)
	}
	res.Workload, res.Trace = workload, trace
	return res, nil
}

// runAll runs every workload (or the one named), each untraced and, with
// c.trace, traced, and writes out/results.json. It reports whether every run
// was correct.
func runAll(c config, stdout, stderr io.Writer) (*resultsFile, bool, error) {
	rf := &resultsFile{Host: hostFingerprint(c)}
	fmt.Fprintln(stdout, rf.Host)
	ok := true
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			if trace && !c.trace {
				continue
			}
			res, err := child(c, w, trace, stdout, stderr)
			if err != nil {
				return nil, false, err
			}
			ok = ok && res.Correct
			rf.Runs = append(rf.Runs, *res)
		}
	}
	fmt.Fprintf(stdout, "\n%-18s", "end-to-end")
	for _, w := range workloadNames {
		fmt.Fprintf(stdout, " %14s", w)
	}
	fmt.Fprintln(stdout)
	for _, d := range endToEnd {
		fmt.Fprintf(stdout, "%-18s", d.Name)
		for _, w := range workloadNames {
			fmt.Fprintf(stdout, " %14.4f", rf.find(w, false).Metrics[d.Name].Value)
		}
		fmt.Fprintf(stdout, " %s\n", d.Unit)
	}
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return nil, false, err
	}
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return nil, false, err
	}
	path := filepath.Join(c.outDir, "results.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return nil, false, err
	}
	fmt.Fprintf(stdout, "results: %s\n", path)
	return rf, ok, nil
}

// setupSlackS is the absolute difference setup_s may always show: a quarter
// of a 50 ms set-up is below what a shared machine repeats.
const setupSlackS = 0.2

// compare prints every metric of a beside b. With repeat set the two are
// runs of the same code, and a difference in either direction counts;
// otherwise b is the newer and only worsening counts. It returns how many
// end-to-end pairs were outside their bounds.
func compare(w io.Writer, a, b *resultsFile, repeat bool) int {
	outside := 0
	for _, wl := range workloadNames {
		ra, rb := a.find(wl, false), b.find(wl, false)
		if ra == nil || rb == nil {
			continue
		}
		fmt.Fprintf(w, "%s\n", wl)
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			worse := (vb - va) / va
			if d.Better == "higher" {
				worse = -worse
			}
			if repeat {
				worse = math.Abs(worse)
			}
			bound, verdict := boundFor(d, wl), "ok"
			if worse > bound && !(d.Name == "setup_s" && math.Abs(vb-va) <= setupSlackS) {
				verdict = "OUTSIDE"
				outside++
			}
			fmt.Fprintf(w, "  %-40s %14.4f %14.4f %-6s %+7.2f%% of bound %5.2f%%  %s\n",
				d.Name, va, vb, d.Unit, 100*worse, 100*bound, verdict)
		}
		ta, tb := a.find(wl, true), b.find(wl, true)
		if ta == nil || tb == nil {
			continue
		}
		for _, d := range perLayer {
			va, vb := ta.Metrics[d.Name].Value, tb.Metrics[d.Name].Value
			fmt.Fprintf(w, "  %-40s %14.4f %14.4f %s\n", d.Name, va, vb, d.Unit)
		}
		for _, name := range repeatExactly {
			if va, vb := ta.Metrics[name].Value, tb.Metrics[name].Value; va != vb {
				fmt.Fprintf(w, "  NOT REPEATED: %s read %v then %v\n", name, va, vb)
			}
		}
	}
	return outside
}

func loadResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rf := &resultsFile{}
	if err := json.Unmarshal(b, rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}
