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
	"time"

	"repro/internal/cliflags"
	"repro/internal/report"
	"repro/internal/tracking"
)

// trackFlags carries every parsed CLI flag into run.
type trackFlags struct {
	target cliflags.Target
	tech   string
	passes int
	obs    cliflags.ObsFlags
}

func main() {
	var tf trackFlags
	tf.target.Register(flag.CommandLine, "micro", "small")
	flag.StringVar(&tf.tech, "tech", "epml", "technique: proc, ufd, spml, epml, oracle")
	flag.IntVar(&tf.passes, "passes", 3, "workload passes (collection after each)")
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
	b, err := tf.target.Boot(tf.obs)
	if err != nil {
		return err
	}
	obs, g, w := b.Obs, b.Guest, b.Workload
	// Report closes the trace; this covers the paths that never reach it.
	defer func() { err = errors.Join(err, obs.Close()) }()

	obs.ExplainTitle = fmt.Sprintf("oohtrack %s/%s (%s)", tf.target.Workload, b.Size, kind)
	t, err := b.Tracker(kind)
	if err != nil {
		return err
	}
	if err := t.Init(); err != nil {
		return err
	}

	fmt.Printf("tracking %s (%s, scale %d) with %s; working set %s\n\n",
		tf.target.Workload, b.Size, tf.target.Scale, t.Name(), report.FormatBytes(w.WorkingSet()))
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
	if res, ok := t.(*tracking.Resilient); ok {
		rec := res.Recovery()
		fmt.Printf("recovery: %d retries (%s backoff), %d degradations, %d rescans (%d pages rescued), %d stalls; active rung %s\n",
			rec.Retries, report.FormatDuration(rec.BackoffTime), rec.Degradations,
			rec.Rescans, rec.RescuedPages, rec.Stalls, res.Active())
	}
	return obs.Report(os.Stdout)
}
