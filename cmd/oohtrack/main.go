// Command oohtrack runs one workload under one dirty page tracking
// technique and prints the dirty set sizes and phase times - a CLI view of
// the Tracker/Tracked interaction of Fig. 1.
//
// Usage:
//
//	oohtrack -workload histogram -tech epml -passes 3
//	oohtrack -workload micro -tech spml -size large
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cliflags"
	"repro/internal/costmodel"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/tracking"
	"repro/internal/workloads"
)

// trackFlags carries every parsed CLI flag into run.
type trackFlags struct {
	name    string
	tech    string
	size    string
	scale   int
	passes  int
	seed    uint64
	backend string
	obs     cliflags.ObsFlags
}

func main() {
	var tf trackFlags
	flag.StringVar(&tf.name, "workload", "micro", "workload: "+strings.Join(workloads.Names(), ", "))
	flag.StringVar(&tf.tech, "tech", "epml", "technique: proc, ufd, spml, epml, oracle")
	flag.StringVar(&tf.size, "size", "small", "config size: small, medium, large")
	flag.IntVar(&tf.scale, "scale", 1, "workload scale factor")
	flag.IntVar(&tf.passes, "passes", 3, "workload passes (collection after each)")
	flag.Uint64Var(&tf.seed, "seed", 42, "workload data seed")
	flag.StringVar(&tf.backend, "backend", "", cliflags.BackendUsage())
	flag.BoolVar(&tf.obs.Summary, "summary", false, "print a per-kind cost breakdown of the trace")
	tf.obs.Register()
	tf.obs.RegisterProf()
	flag.Parse()

	// main never exits from inside the work: run returns, so every deferred
	// cleanup (trace close in particular) fires even on the error paths and
	// a failed run still leaves a complete JSONL file behind.
	if err := run(tf); err != nil {
		fmt.Fprintf(os.Stderr, "oohtrack: %v\n", err)
		os.Exit(1)
	}
}

func run(tf trackFlags) (err error) {
	kind, err := cliflags.ParseTech(tf.tech)
	if err != nil {
		return err
	}
	sz, err := cliflags.ParseSize(tf.size)
	if err != nil {
		return err
	}
	backend, err := cliflags.ParseBackend(tf.backend)
	if err != nil {
		return err
	}
	// Build (and thereby validate) the observability flags before any
	// work: a typo exits non-zero even if the flag would go unused.
	obs, err := tf.obs.Build(tf.seed)
	if err != nil {
		return err
	}
	// Report closes the trace; this covers the paths that never reach it.
	defer func() { err = errors.Join(err, obs.Close()) }()

	obs.ExplainTitle = fmt.Sprintf("oohtrack %s/%s (%s)", tf.name, sz, kind)
	m, err := machine.New(machine.Config{Backend: backend, Tracer: obs.Tracer, Faults: obs.Faults,
		Metrics: obs.Metrics, Profiler: obs.Profiler, Monitor: obs.Monitor})
	if err != nil {
		return err
	}
	g := m.Guest(0)
	proc := g.Kernel.Spawn(tf.name)
	w, err := workloads.New(tf.name, sz, tf.scale)
	if err != nil {
		return err
	}
	if err := w.Setup(workloads.NewRegionAlloc(proc, false), sim.NewRNG(tf.seed)); err != nil {
		return err
	}
	// Under injected faults, track through the resilient wrapper so transient
	// failures are retried and missing capabilities degrade down the ladder.
	// The oracle sits outside the ladder (it is the ground truth the wrapper
	// itself verifies against), so it always runs bare.
	var (
		t   tracking.Technique
		res *tracking.Resilient
	)
	if obs.Faults.Armed() && kind != costmodel.Oracle {
		res = g.NewResilient(kind, proc)
		t = res
	} else {
		t, err = g.NewTechnique(kind, proc)
		if err != nil {
			return err
		}
	}
	if err := t.Init(); err != nil {
		return err
	}

	fmt.Printf("tracking %s (%s, scale %d) with %s; working set %s\n\n",
		tf.name, sz, tf.scale, t.Name(), report.FormatBytes(w.WorkingSet()))
	for pass := 1; pass <= tf.passes; pass++ {
		before := g.Kernel.Clock.Nanos()
		if err := w.Run(); err != nil {
			return err
		}
		runTime := g.Kernel.Clock.Nanos() - before
		dirty, err := t.Collect()
		if err != nil {
			return err
		}
		fmt.Printf("pass %d: run %-12s dirty pages %d\n",
			pass, report.FormatDuration(time.Duration(runTime)), len(dirty))
	}
	if err := t.Close(); err != nil {
		return err
	}
	s := t.Stats()
	fmt.Printf("\ntracker: init %s, collect %s over %d collections, %d pages reported\n",
		report.FormatDuration(s.InitTime), report.FormatDuration(s.CollectTime),
		s.Collections, s.Reported)
	fmt.Printf("guest events: %s\n", g.Kernel.VCPU.Counters.String())
	if res != nil {
		rec := res.Recovery()
		fmt.Printf("recovery: %d retries (%s backoff), %d degradations, %d rescans (%d pages rescued), %d stalls; active rung %s\n",
			rec.Retries, report.FormatDuration(rec.BackoffTime), rec.Degradations,
			rec.Rescans, rec.RescuedPages, rec.Stalls, res.Active())
	}
	return obs.Report(os.Stdout)
}
