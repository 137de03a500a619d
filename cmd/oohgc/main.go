// Command oohgc runs GCBench (or a Phoenix app) under the Boehm-style
// collector with the chosen dirty page tracking technique and prints the
// per-cycle statistics - the data behind the paper's Fig. 5.
//
// Usage:
//
//	oohgc -tech epml -size medium
//	oohgc -app histogram -tech spml
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/boehmgc"
	"repro/internal/cliflags"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/tracking"
	"repro/internal/workloads"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "oohgc: %v\n", err)
		os.Exit(1)
	}
}

// run parses args on its own flag set and writes the cycle table to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("oohgc", flag.ExitOnError)
	var (
		app     = fs.String("app", "gcbench", "gcbench or a Phoenix app name")
		tech    = fs.String("tech", "epml", "technique: proc, ufd, spml, epml, oracle, none")
		size    = fs.String("size", "small", "config size: small, medium, large")
		scale   = fs.Int("scale", 1, "workload scale factor")
		passes  = fs.Int("passes", 4, "workload passes (one forced GC after each)")
		seed    = fs.Uint64("seed", 42, "workload data seed")
		backend = fs.String("backend", "", cliflags.BackendUsage())
	)
	fs.Parse(args)

	sz, err := cliflags.ParseSize(*size)
	if err != nil {
		return err
	}
	be, err := cliflags.ParseBackend(*backend)
	if err != nil {
		return err
	}
	m, err := machine.New(machine.Config{Backend: be})
	if err != nil {
		return err
	}
	g := m.Guest(0)
	proc := g.Kernel.Spawn(*app)
	gc, err := boehmgc.New(proc, uint64(64<<20)*uint64(*scale), nil)
	if err != nil {
		return err
	}
	techName := "none (full STW traces)"
	if strings.ToLower(*tech) != "none" {
		kind, err := cliflags.ParseTech(*tech)
		if err != nil {
			return err
		}
		t, err := g.NewTechnique(kind, proc)
		if err != nil {
			return err
		}
		if pml, ok := t.(*tracking.PMLTechnique); ok {
			pml.ReuseReverseIndex = true
		}
		gc.Tech = t
		techName = t.Name()
	}

	fmt.Fprintf(w, "running %s (%s) with Boehm GC, dirty tracking via %s\n\n", *app, sz, techName)
	runPass, err := setup(gc, *app, sz, *scale, *seed)
	if err != nil {
		return err
	}
	for i := 0; i < *passes; i++ {
		if err := runPass(); err != nil {
			return err
		}
		if _, err := gc.Collect(); err != nil {
			return err
		}
	}

	fmt.Fprintf(w, "%-6s %-12s %-12s %-6s %-8s %-8s %-6s %-6s\n",
		"cycle", "total", "track", "incr", "scanned", "skipped", "freed", "live")
	for _, c := range gc.Cycles() {
		fmt.Fprintf(w, "%-6d %-12s %-12s %-6v %-8d %-8d %-6d %-6d\n",
			c.Cycle, report.FormatDuration(c.Total), report.FormatDuration(c.TrackTime),
			c.Incremental, c.Scanned, c.SkippedScan, c.Freed, c.Live)
	}
	fmt.Fprintf(w, "\ntotal GC time: %s over %d cycles\n",
		report.FormatDuration(gc.TotalGCTime()), len(gc.Cycles()))
	return nil
}

// setup prepares either GCBench or a Phoenix app on the GC heap and
// returns the per-pass runner.
func setup(gc *boehmgc.GC, app string, sz workloads.Size, scale int, seed uint64) (func() error, error) {
	rng := sim.NewRNG(seed)
	if app == "gcbench" {
		b := workloads.GCBenchConfig(sz, scale)
		if err := b.SetupGC(gc, rng); err != nil {
			return nil, err
		}
		return b.Run, nil
	}
	w, err := workloads.New(app, sz, scale)
	if err != nil {
		return nil, err
	}
	if err := w.Setup(&workloads.GCAlloc{GC: gc}, rng); err != nil {
		return nil, err
	}
	return w.Run, nil
}
