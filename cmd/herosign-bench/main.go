// Command herosign-bench regenerates the HERO-Sign evaluation: every table
// and figure of the paper's §IV, modeled on the simulated GPU catalog.
// Every number it prints comes from the model, so a run is reproducible to
// the byte; wall-clock measurements of this host live in ./benchmark.
//
// Usage:
//
//	herosign-bench [-gpu "RTX 4090"] [-batch 1024] [-sample 2] [-exp all|id,id,...]
//	herosign-bench -json -batch 256 -sample 2 > BENCH_modeled.json
//	herosign-bench -list
//
// With -json the run is emitted as one machine-readable document (device,
// batch, sample and the per-experiment tables). BENCH_modeled.json is that
// document at the settings above, and internal/bench's tests regenerate it
// cell for cell.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"herosign/internal/bench"
	"herosign/internal/gpu/device"
)

func main() {
	gpuName := flag.String("gpu", "RTX 4090", "simulated GPU (name or architecture)")
	batch := flag.Int("batch", 1024, "batch size (paper Block = 1024)")
	sample := flag.Int("sample", 2, "functionally executed blocks per launch (counters scale)")
	exp := flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
	jsonOut := flag.Bool("json", false, "emit one JSON document instead of text tables")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	dev, err := device.ByName(*gpuName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	suite := bench.NewSuite(dev)
	suite.Batch = *batch
	suite.Sample = *sample

	var ids []string
	if *exp == "all" {
		for _, e := range bench.Experiments() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*exp, ",")
	}

	report := &bench.Report{Device: dev.Name, Batch: *batch, Sample: *sample}
	if !*jsonOut {
		fmt.Printf("herosign-bench: device=%s batch=%d sample=%d\n\n", dev, *batch, *sample)
	}
	for _, id := range ids {
		t, err := suite.RunByID(strings.TrimSpace(id))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *jsonOut {
			report.Experiments = append(report.Experiments, t)
		} else {
			t.Render(os.Stdout)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
