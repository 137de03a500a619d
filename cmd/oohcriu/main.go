// Command oohcriu checkpoints a running workload with the chosen tracking
// technique, optionally writes the image to disk, restores it into a fresh
// process and verifies the restored memory byte for byte. With -faults
// the tracker runs under injected failures through the resilient wrapper,
// transient collection failures are retried with charged backoff, and a
// -budget downtime SLO aborts the checkpoint cleanly (process still
// running) rather than blow the stop-and-copy window.
//
// Usage:
//
//	oohcriu -workload baby -tech epml -rounds 2
//	oohcriu -workload pca -tech proc -out /tmp/pca.img
//	oohcriu -tech spml -faults hc-drain-fail:0.3 -budget 2ms -metrics cost
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cliflags"
	"repro/internal/criu"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/tracking"
	"repro/internal/workloads"
)

// criuFlags carries every parsed CLI flag into run.
type criuFlags struct {
	name    string
	tech    string
	size    string
	scale   int
	rounds  int
	budget  time.Duration
	out     string
	seed    uint64
	backend string
	obs     cliflags.ObsFlags
}

func main() {
	var cf criuFlags
	flag.StringVar(&cf.name, "workload", "baby", "workload: "+strings.Join(workloads.Names(), ", "))
	flag.StringVar(&cf.tech, "tech", "epml", "technique: proc, ufd, spml, epml, oracle")
	flag.StringVar(&cf.size, "size", "medium", "config size: small, medium, large")
	flag.IntVar(&cf.scale, "scale", 1, "workload scale factor")
	flag.IntVar(&cf.rounds, "rounds", 2, "pre-copy rounds before stop-and-copy")
	flag.DurationVar(&cf.budget, "budget", 0, "downtime SLO: abort rather than stop-and-copy beyond this (0 = no budget)")
	flag.StringVar(&cf.out, "out", "", "write the checkpoint image to this file")
	flag.Uint64Var(&cf.seed, "seed", 42, "workload data seed")
	flag.StringVar(&cf.backend, "backend", "", cliflags.BackendUsage())
	cf.obs.Register()
	flag.Parse()

	// main never exits from inside the work: run returns, so deferred
	// cleanup (the trace close in particular) fires even on error paths.
	if err := run(cf); err != nil {
		fmt.Fprintf(os.Stderr, "oohcriu: %v\n", err)
		os.Exit(1)
	}
}

func run(cf criuFlags) (err error) {
	kind, err := cliflags.ParseTech(cf.tech)
	if err != nil {
		return err
	}
	sz, err := cliflags.ParseSize(cf.size)
	if err != nil {
		return err
	}
	backend, err := cliflags.ParseBackend(cf.backend)
	if err != nil {
		return err
	}
	// Build (and thereby validate) the observability flags before any
	// work: a typo exits non-zero even if the flag would go unused.
	obs, err := cf.obs.Build(cf.seed)
	if err != nil {
		return err
	}
	// Report closes the trace; this covers the paths that never reach it.
	defer func() { err = errors.Join(err, obs.Close()) }()

	obs.ExplainTitle = fmt.Sprintf("oohcriu %s/%s (%s)", cf.name, sz, kind)
	m, err := machine.New(machine.Config{Backend: backend, Tracer: obs.Tracer, Faults: obs.Faults,
		Metrics: obs.Metrics, Profiler: obs.Profiler, Monitor: obs.Monitor})
	if err != nil {
		return err
	}
	g := m.Guest(0)
	proc := g.Kernel.Spawn(cf.name)
	w, err := workloads.New(cf.name, sz, cf.scale)
	if err != nil {
		return err
	}
	if err := w.Setup(workloads.NewRegionAlloc(proc, false), sim.NewRNG(cf.seed)); err != nil {
		return err
	}
	if err := w.Run(); err != nil {
		return err
	}

	// Under injected faults, checkpoint through the resilient wrapper so
	// transient tracker failures are retried and missing capabilities
	// degrade down the ladder instead of killing the checkpoint.
	var t tracking.Technique
	if obs.Faults.Armed() {
		t = g.NewResilient(kind, proc)
	} else {
		t, err = g.NewTechnique(kind, proc)
		if err != nil {
			return err
		}
	}
	ck := criu.New(proc, t, criu.Options{
		MaxRounds:      cf.rounds,
		KeepRunning:    true,
		DowntimeBudget: cf.budget,
	})
	img, stats, err := ck.Run(func(round int) error {
		fmt.Printf("pre-copy round %d: workload keeps running...\n", round)
		return w.Run()
	})
	if err != nil {
		// Aborts are clean by construction (process resumed, tracker
		// closed); surface the observability summary, then the reason.
		rerr := obs.Report(os.Stdout)
		if errors.Is(err, criu.ErrSLOAbort) {
			err = fmt.Errorf("checkpoint aborted, process still running: %w", err)
		}
		return errors.Join(err, rerr)
	}

	fmt.Printf("\ncheckpoint of %s (%s) with %s:\n", cf.name, sz, t.Name())
	fmt.Printf("  init %-10s MD %-10s MW %-10s total %s\n",
		report.FormatDuration(stats.Init), report.FormatDuration(stats.MD),
		report.FormatDuration(stats.MW), report.FormatDuration(stats.Total))
	fmt.Printf("  rounds %d, pages dumped %d (%d in final image, %.2fx amplification)\n",
		stats.Rounds, stats.Dumped, stats.Final,
		float64(stats.Dumped)/float64(max(stats.Final, 1)))
	if stats.CollectRetries > 0 {
		fmt.Printf("  transient collection failures retried: %d\n", stats.CollectRetries)
	}

	if cf.out != "" {
		f, err := os.Create(cf.out)
		if err != nil {
			return err
		}
		n, err := img.WriteTo(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("  image written to %s (%d bytes)\n", cf.out, n)
	}

	restored, err := criu.Restore(g.Kernel, img)
	if err != nil {
		return err
	}
	if err := criu.Verify(proc, restored); err != nil {
		return fmt.Errorf("restore verification FAILED: %w", err)
	}
	fmt.Println("  restore verified: restored memory is byte-identical")
	return obs.Report(os.Stdout)
}
