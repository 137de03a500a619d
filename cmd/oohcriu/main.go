// Command oohcriu checkpoints a running workload with the chosen tracking
// technique, optionally writes the image to disk, restores it into a fresh
// process and verifies the restored memory byte for byte. With -faults
// the tracker runs under injected failures through the resilient wrapper
// (the oracle, the ground truth, stays bare), transient collection
// failures are retried with charged backoff, and a -budget downtime SLO
// aborts the checkpoint cleanly (process still running) rather than blow
// the stop-and-copy window.
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
	"io"
	"os"
	"time"

	"repro/internal/cliflags"
	"repro/internal/criu"
	"repro/internal/report"
)

// criuFlags carries every parsed CLI flag into run.
type criuFlags struct {
	target cliflags.Target
	tech   string
	rounds int
	budget time.Duration
	out    string
	obs    cliflags.ObsFlags
}

func main() {
	var cf criuFlags
	cf.target.Register(flag.CommandLine, "baby", "medium")
	flag.StringVar(&cf.tech, "tech", "epml", "technique: proc, ufd, spml, epml, oracle")
	flag.IntVar(&cf.rounds, "rounds", 2, "pre-copy rounds before stop-and-copy")
	flag.DurationVar(&cf.budget, "budget", 0, "downtime SLO: abort rather than stop-and-copy beyond this (0 = no budget)")
	flag.StringVar(&cf.out, "out", "", "write the checkpoint image to this file")
	cf.obs.Register()
	flag.Parse()

	// main never exits from inside the work: run returns, so deferred
	// cleanup (the trace close in particular) fires even on error paths.
	if err := run(cf, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "oohcriu: %v\n", err)
		os.Exit(1)
	}
}

// run checkpoints, restores and verifies the target, printing to w.
func run(cf criuFlags, w io.Writer) (err error) {
	kind, err := cliflags.ParseTech(cf.tech)
	if err != nil {
		return err
	}
	b, err := cf.target.Boot(cf.obs)
	if err != nil {
		return err
	}
	obs, proc := b.Obs, b.Proc
	// Report closes the trace; this covers the paths that never reach it.
	defer func() { err = errors.Join(err, obs.Close()) }()

	obs.ExplainTitle = fmt.Sprintf("oohcriu %s/%s (%s)", cf.target.Workload, b.Size, kind)
	if err := b.Workload.Run(); err != nil {
		return err
	}
	t, err := b.Tracker(kind)
	if err != nil {
		return err
	}
	ck := criu.New(proc, t, criu.Options{
		MaxRounds:      cf.rounds,
		KeepRunning:    true,
		DowntimeBudget: cf.budget,
	})
	img, stats, err := ck.Run(func(round int) error {
		fmt.Fprintf(w, "pre-copy round %d: workload keeps running...\n", round)
		return b.Workload.Run()
	})
	if err != nil {
		// Aborts are clean by construction (process resumed, tracker
		// closed); surface the observability summary, then the reason.
		rerr := obs.Report(w)
		if errors.Is(err, criu.ErrSLOAbort) {
			err = fmt.Errorf("checkpoint aborted, process still running: %w", err)
		}
		return errors.Join(err, rerr)
	}

	fmt.Fprintf(w, "\ncheckpoint of %s (%s) with %s:\n", cf.target.Workload, b.Size, t.Name())
	fmt.Fprintf(w, "  init %-10s MD %-10s MW %-10s total %s\n",
		report.FormatDuration(stats.Init), report.FormatDuration(stats.MD),
		report.FormatDuration(stats.MW), report.FormatDuration(stats.Total))
	fmt.Fprintf(w, "  rounds %d, pages dumped %d (%d in final image, %.2fx amplification)\n",
		stats.Rounds, stats.Dumped, stats.Final,
		float64(stats.Dumped)/float64(max(stats.Final, 1)))
	if stats.CollectRetries > 0 {
		fmt.Fprintf(w, "  transient collection failures retried: %d\n", stats.CollectRetries)
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
		fmt.Fprintf(w, "  image written to %s (%d bytes)\n", cf.out, n)
	}

	restored, err := criu.Restore(b.Guest.Kernel, img)
	if err != nil {
		return err
	}
	if err := criu.Verify(proc, restored); err != nil {
		return fmt.Errorf("restore verification FAILED: %w", err)
	}
	fmt.Fprintln(w, "  restore verified: restored memory is byte-identical")
	return obs.Report(w)
}
