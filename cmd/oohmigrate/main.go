// Command oohmigrate live-migrates a VM running a workload, using the
// hypervisor-level PML dirty log (the feature's original purpose), and
// reports rounds, retransmissions and downtime. With -spml it keeps a
// guest SPML session tracking the workload during the migration, proving
// the two PML users coexist (§IV-C). With -faults the transport runs
// under injected failures and the transactional pipeline retries,
// resumes from its round journal after crashes, and aborts cleanly when
// the -budget downtime SLO is unattainable.
//
// Usage:
//
//	oohmigrate -workload stdhash -rounds 4
//	oohmigrate -workload histogram -spml
//	oohmigrate -faults send-fail:0.2,round-crash:0.3 -budget 200us -metrics count
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cliflags"
	"repro/internal/costmodel"
	"repro/internal/migration"
	"repro/internal/report"
	"repro/internal/tracking"
)

// migrateFlags carries every parsed CLI flag into run.
type migrateFlags struct {
	target  cliflags.Target
	rounds  int
	bw      int
	budget  time.Duration
	retries int
	resumes int
	spml    bool
	obs     cliflags.ObsFlags
}

func main() {
	var mf migrateFlags
	mf.target.Register(flag.CommandLine, "stdhash", "medium")
	flag.IntVar(&mf.rounds, "rounds", 4, "max pre-copy rounds")
	flag.IntVar(&mf.bw, "bw", 256, "bandwidth in pages per virtual ms")
	flag.DurationVar(&mf.budget, "budget", 0, "downtime SLO: abort rather than stop-and-copy beyond this (0 = no budget)")
	flag.IntVar(&mf.retries, "send-retries", 0, "per-page transient-send retry budget (0 = default)")
	flag.IntVar(&mf.resumes, "resumes", 3, "max journal resumes after injected round crashes")
	flag.BoolVar(&mf.spml, "spml", false, "run a guest SPML session during the migration")
	mf.obs.Register()
	flag.Parse()

	// main never exits from inside the work: run returns, so deferred
	// cleanup (the trace close in particular) fires even on error paths.
	if err := run(mf); err != nil {
		fmt.Fprintf(os.Stderr, "oohmigrate: %v\n", err)
		os.Exit(1)
	}
}

func run(mf migrateFlags) (err error) {
	b, err := mf.target.Boot(mf.obs)
	if err != nil {
		return err
	}
	obs, g, w := b.Obs, b.Guest, b.Workload
	// Report closes the trace; this covers the paths that never reach it.
	defer func() { err = errors.Join(err, obs.Close()) }()

	obs.ExplainTitle = fmt.Sprintf("oohmigrate %s/%s", mf.target.Workload, b.Size)
	if err := w.Run(); err != nil {
		return err
	}

	var tech tracking.Technique
	if mf.spml {
		// Under injected faults the guest session tracks through the
		// resilient wrapper, so transient hypercall faults are retried
		// rather than killing the migration's runBetween.
		tech, err = b.Tracker(costmodel.SPML)
		if err != nil {
			return err
		}
		if err := tech.Init(); err != nil {
			return err
		}
		fmt.Println("guest SPML session armed; migrating underneath it...")
	}

	opts := migration.Options{
		MaxRounds:           mf.rounds,
		BandwidthPagesPerMS: mf.bw,
		DowntimeBudget:      mf.budget,
		MaxSendRetries:      mf.retries,
	}
	_, stats, err := migration.Migrate(g.VM, opts, func(round int) error {
		fmt.Printf("pre-copy round %d: guest keeps running\n", round)
		return w.Run()
	})
	// An injected round crash leaves a journal; re-attach and send only
	// the delta, up to -resumes times.
	for attempts := 0; err != nil && attempts < mf.resumes; attempts++ {
		var ce *migration.CrashError
		if !errors.As(err, &ce) {
			break
		}
		fmt.Printf("round crash after round %d: resuming from journal (%d frames banked)\n",
			ce.Round, ce.Journal.ImagePages())
		_, stats, err = migration.Resume(g.VM, ce.Journal, func(round int) error {
			fmt.Printf("pre-copy round %d (resumed): guest keeps running\n", round)
			return w.Run()
		})
	}
	if err != nil {
		// Out of resume attempts or a non-crash failure: abandon the
		// migration cleanly (logging disarmed, partial image discarded,
		// source untouched) and report why.
		var ce *migration.CrashError
		if errors.As(err, &ce) {
			migration.Abort(g.VM, ce.Journal)
		}
		rerr := obs.Report(os.Stdout)
		return errors.Join(fmt.Errorf("migration aborted (source still running): %w", err), rerr)
	}

	fmt.Printf("\nmigration of %s (%s): %d frames, %d sent (%.2fx amplification)\n",
		mf.target.Workload, b.Size, stats.UniquePages, stats.PagesSent,
		float64(stats.PagesSent)/float64(max(stats.UniquePages, 1)))
	fmt.Printf("rounds %d (pages per round: %v), converged=%v\n",
		stats.Rounds, stats.PerRoundPages, stats.Converged)
	if stats.Retries+stats.Resends+stats.Stalls+stats.Resumes > 0 {
		fmt.Printf("transport recovery: %d retries, %d resends, %d stalls, %d resumes\n",
			stats.Retries, stats.Resends, stats.Stalls, stats.Resumes)
	}
	fmt.Printf("total %s, downtime %s\n",
		report.FormatDuration(stats.TotalTime), report.FormatDuration(stats.Downtime))

	if tech != nil {
		dirty, err := tech.Collect()
		if err != nil {
			return err
		}
		fmt.Printf("\nguest SPML collected %d dirty pages across the migration - both PML users stayed correct\n", len(dirty))
		if err := tech.Close(); err != nil {
			return err
		}
	}
	return obs.Report(os.Stdout)
}
