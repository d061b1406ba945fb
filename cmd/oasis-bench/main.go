// Command oasis-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	oasis-bench                      # run every experiment
//	oasis-bench -experiment fig8     # one experiment
//	oasis-bench -runs 5              # average 5 simulation days per point
//	oasis-bench -quick               # restricted sweeps for a fast pass
//	oasis-bench -list                # list experiment identifiers
//	oasis-bench -json BENCH_reattach.json   # transport benchmark as JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"oasis/internal/experiments"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id (see -list) or 'all'")
		seed       = flag.Uint64("seed", 42, "random seed")
		runs       = flag.Int("runs", 1, "simulation days averaged per cluster data point")
		quick      = flag.Bool("quick", false, "restrict sweeps for a fast pass")
		list       = flag.Bool("list", false, "list experiment identifiers and exit")
		outDir     = flag.String("out", "", "also write each report to <dir>/<id>.txt")
		jsonOut    = flag.String("json", "", "run the reattach transport benchmark and write it as JSON to this path")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
		return
	}
	opt := experiments.Option{Seed: *seed, Runs: *runs, Quick: *quick}

	if *jsonOut != "" {
		// -experiment selects which benchmark the JSON carries: "detach"
		// for the upload pipeline, "shard" for the sharded fabric, "sim"
		// for the million-user fleet simulator, "cluster" for the
		// control-plane stress benchmark, anything else (including the
		// default "all") keeps the original reattach benchmark.
		var (
			bench any
			err   error
		)
		switch strings.ToLower(*experiment) {
		case "sim":
			bench, err = experiments.Fleet(opt)
		case "cluster":
			bench, err = experiments.ClusterStress(opt)
		case "detach":
			bench, err = experiments.Detach(opt)
		case "shard":
			bench, err = experiments.Shard(opt)
		case "rebalance":
			bench, err = experiments.Rebalance(opt)
		default:
			bench, err = experiments.Reattach(opt)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		data, err := json.MarshalIndent(bench, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
		// Benchmarks that embed a measured acceptance gate decide the exit
		// status: CI runs the bench and fails the build when the measured
		// comparison regresses past the noise floor.
		if g, ok := bench.(interface{ GateResult() experiments.Gate }); ok {
			gate := g.GateResult()
			fmt.Printf("measured gate (%s): ratio %.3f vs floor %.2f\n",
				gate.Comparison, gate.Ratio, gate.NoiseFloor)
			if !gate.Pass {
				fmt.Fprintln(os.Stderr, "measured gate FAILED")
				os.Exit(1)
			}
		}
		return
	}

	emit := func(r experiments.Report) {
		fmt.Println(r.String())
		if *outDir == "" {
			return
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		path := filepath.Join(*outDir, r.ID+".txt")
		if err := os.WriteFile(path, []byte(r.String()+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *experiment == "all" {
		for _, r := range experiments.All(opt) {
			emit(r)
		}
		for _, r := range experiments.Ablations(opt) {
			emit(r)
		}
		return
	}
	r, ok := experiments.ByID(*experiment, opt)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %s\n",
			*experiment, strings.Join(experiments.IDs(), ", "))
		os.Exit(2)
	}
	emit(r)
}
