// Command perfbench is the repository's host-time benchmark. It measures
// how long the simulator takes to run, never the simulated (virtual) time,
// which it instead checks for exact repetition.
//
// Run it from the root of a checkout through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload micro-track --seed 7 --seconds 30 --trace 0
//
// Each pass of the workload runs in a fresh child process, so every
// measured pass starts from cold state. The run repeats passes for about
// --seconds and reports medians. With --trace 0 it prints the end-to-end
// metrics of BENCHMARK.json; with --trace 1 it alternates untraced and
// traced passes and prints the per-layer metrics, timed by spans around
// every call the benchmark makes into a layer. The last line of output is
// one JSON object. METRICS.md describes what each metric should move.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: paper-eval, micro-track or boehm-observed")
	flag.Uint64Var(&o.seed, "seed", 42, "seed the workload's inputs are generated from")
	flag.IntVar(&o.seconds, "seconds", 30, "how long the run measures, in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench-out", "directory for span files")
	flag.BoolVar(&o.record, "record", false, "run one pass and store its outputs as the workload's expected outputs")
	flag.BoolVar(&o.child, "child", false, "run a single pass in this process and print it as JSON (used by the run itself)")
	flag.BoolVar(&o.traced, "traced", false, "with -child: record spans")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "with -child: stop after set-up")
	flag.Int64Var(&o.spawnNS, "spawn-ns", 0, "with -child: wall-clock ns at which the parent started this process")
	flag.StringVar(&o.spans, "spans", "", "with -child -traced: write the spans to this file")
	flag.Parse()

	var err error
	if o.child {
		err = childMain(o)
	} else {
		err = run(o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     int
	out       string
	record    bool
	child     bool
	traced    bool
	setupOnly bool
	spawnNS   int64
	spans     string
}

// childMain runs one pass and prints it as a JSON object on stdout.
func childMain(o options) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	res, rec, err := runPass(w, o.seed, o.traced, o.setupOnly, o.spawnNS)
	if err != nil {
		return err
	}
	if rec != nil && o.spans != "" {
		if err := rec.write(o.spans); err != nil {
			return err
		}
	}
	return writeJSON(os.Stdout, res)
}

// nproc is the thread cap: GOMAXPROCS of every process and paper-eval's
// Workers.
func nproc() int { return runtime.NumCPU() }
