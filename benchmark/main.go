// Command benchmark is the repository's benchmark: five named workloads over
// the SPHINCS+ signing core and the service built on it, seven end-to-end
// metrics per workload, and a ladder of per-layer measurements from one
// SHA-256 compression up to the front->leaf proxy hop. BENCHMARK.json
// declares the names; README.md says what each is for and how they interact.
//
//	go run ./benchmark                       every workload, end-to-end metrics
//	go run ./benchmark -trace 1              ... and the traced pass: per-layer metrics, trace files
//	go run ./benchmark -workload http-sign   one workload, in this process
//	go run ./benchmark -check-repeat         everything twice; differences against the bounds
//	go run ./benchmark -compare old.json new.json
//
// With -workload the last line printed is one JSON object (correct,
// attempted, failed, metrics): end-to-end metrics with -trace 0, per-layer
// metrics with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var c config
	var trace int
	var checkRepeat, doCompare bool
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.workload, "workload", "all", "one workload to run in this process, or all (each in a child process)")
	fs.Uint64Var(&c.seed, "seed", 1, "seed of every generated input: keys, messages, corruptions, arrival phase")
	fs.Float64Var(&c.seconds, "seconds", 20, "measured window in seconds")
	fs.Float64Var(&c.seconds, "window", 20, "alias of -seconds")
	fs.IntVar(&trace, "trace", 0, "1 adds the traced pass (with -workload: runs only it)")
	fs.BoolVar(&c.short, "short", false, "smoke test: short warm-ups and ladder loops; its numbers are never reported")
	fs.StringVar(&c.outDir, "out", "benchmark/out", "directory for results.json and trace files")
	fs.BoolVar(&checkRepeat, "check-repeat", false, "run everything twice and hold each end-to-end difference to its bound")
	fs.BoolVar(&doCompare, "compare", false, "compare two results.json files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	c.trace = trace != 0
	if c.short {
		c.seconds = 1
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}

	switch {
	case doCompare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two results.json files"))
		}
		a, err := loadResults(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := loadResults(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if why := a.Host.comparable(b.Host); why != "" {
			return fail(fmt.Errorf("refusing to compare: %s", why))
		}
		if compare(stdout, a, b, false) > 0 {
			return 1
		}
		return 0

	case checkRepeat:
		c.trace = true
		a, okA, err := runAll(c, stdout, stderr)
		if err != nil {
			return fail(err)
		}
		b, okB, err := runAll(c, stdout, stderr)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, "\nrepeat check: first run, second run, difference against the metric's bound")
		if outside := compare(stdout, a, b, true); outside > 0 || !okA || !okB {
			fmt.Fprintf(stdout, "repeat check FAILED: %d end-to-end pairs outside their bounds\n", outside)
			return 1
		}
		fmt.Fprintln(stdout, "repeat check passed")
		return 0

	case c.workload == "all":
		_, ok, err := runAll(c, stdout, stderr)
		if err != nil {
			return fail(err)
		}
		if !ok {
			fmt.Fprintln(stdout, "FAILED: a run was incorrect (see GUARD / INVALID / failed above)")
			return 1
		}
		return 0
	}

	fmt.Fprintln(stdout, hostFingerprint(c))
	res, err := runWorkload(c, stdout)
	if err != nil {
		return fail(err)
	}
	line, err := json.Marshal(res) // workload and trace are unset here, and omitted
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
