package criu

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/costmodel"
	"repro/internal/faults"
	"repro/internal/guestos"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/pgtable"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracking"
)

// Options tunes the pre-copy checkpoint loop.
type Options struct {
	// MaxRounds bounds the dirty-only pre-copy rounds before the final
	// stop-and-copy (default 2).
	MaxRounds int
	// Threshold stops pre-copy early once a round dumps at most this many
	// pages (default 64).
	Threshold int
	// KeepRunning resumes the process after the final round instead of
	// leaving it stopped (CRIU's --leave-running).
	KeepRunning bool
	// DowntimeBudget, when non-zero, is the stop-and-copy SLO: the final
	// round is refused while the last dirty set's estimated dump time
	// exceeds it (pre-copy continues instead), and once MaxRounds are
	// exhausted the checkpoint aborts with ErrSLOAbort - process still
	// running, tracker closed - rather than blow the budget.
	DowntimeBudget time.Duration
	// MaxCollectRetries bounds the retries of a transient
	// (faults.ErrTransient) collection failure before the checkpoint
	// aborts (default 2). Each retry charges collectBackoff of virtual
	// time, doubling per attempt.
	MaxCollectRetries int
}

// collectBackoff is the charged wait before the first collect retry.
const collectBackoff = 50 * time.Microsecond

func (o Options) withDefaults() Options {
	if o.MaxRounds == 0 {
		o.MaxRounds = 2
	}
	if o.Threshold == 0 {
		o.Threshold = 64
	}
	if o.MaxCollectRetries == 0 {
		o.MaxCollectRetries = 2
	}
	return o
}

// Stats reports the phase times of one checkpoint, matching the paper's
// decomposition: MD (memory dump: dirty address collection) and MW (memory
// write: page content written to the image/disk). With /proc, CRIU walks
// pagemap and writes pages as it finds them, so the walk is charged to MW
// and MD is empty; with SPML/EPML all addresses are collected first (MD -
// where SPML's reverse mapping lives) and MW is a pure sequential write
// (§VI-F).
type Stats struct {
	Technique costmodel.Technique
	Init      time.Duration
	MD        time.Duration
	MW        time.Duration
	// Total is the checkpointer's own execution time (Init + MD + MW),
	// excluding the tracked workload's execution between pre-copy rounds.
	Total time.Duration
	// Wall is the full virtual time from start to finish, including the
	// workload passes between rounds.
	Wall     time.Duration
	Rounds   int
	PagesPer []int // pages dumped per round
	Dumped   int   // total page dumps (pre-copy amplification)
	Final    int   // pages in the final image
	// CollectRetries counts transient collection failures retried with
	// charged backoff before succeeding.
	CollectRetries int
	// Aborted reports a checkpoint abandoned on an error or SLO path: the
	// tracker was closed, the process left running, no image produced.
	Aborted bool
}

// Checkpointer performs iterative pre-copy checkpoints of one process
// using a pluggable dirty page tracking technique.
type Checkpointer struct {
	Proc *guestos.Process
	Tech tracking.Technique
	Opts Options

	clock *sim.Clock
}

// New returns a checkpointer for proc using tech.
func New(proc *guestos.Process, tech tracking.Technique, opts Options) *Checkpointer {
	return &Checkpointer{
		Proc:  proc,
		Tech:  tech,
		Opts:  opts.withDefaults(),
		clock: proc.Kernel().Clock,
	}
}

// ErrSLOAbort reports a checkpoint whose last dirty set could not be
// dumped within Options.DowntimeBudget even after MaxRounds: rather than
// pause the process past its SLO, the checkpoint aborted cleanly.
var ErrSLOAbort = errors.New("criu: downtime SLO unattainable")

// abort abandons a failed checkpoint cleanly: the tracker session is torn
// down (best-effort - the failure that got us here may also fail Close)
// and the process is left running, never stopped. Every Run error path
// funnels through here, so a failed checkpoint can never leak a paused
// process or an armed tracking session.
func (c *Checkpointer) abort(stats *Stats, closeTech bool) {
	stats.Aborted = true
	if c.Proc.Paused() {
		c.Proc.Resume()
	}
	if closeTech {
		_ = c.Tech.Close()
	}
}

// Run performs a complete checkpoint: full first dump, dirty-only pre-copy
// rounds with the workload running between rounds (runBetween, may be nil),
// and a final stop-and-copy round with the process paused. On any error
// the checkpoint aborts cleanly: profiler spans are unwound, the tracker
// is closed, and the process keeps running.
func (c *Checkpointer) Run(runBetween func(round int) error) (*Image, Stats, error) {
	stats := Stats{Technique: c.Tech.Kind()}
	img := NewImage(c.Proc)
	total := sim.StartWatch(c.clock)
	tap := c.Proc.Kernel().VCPU.Prof
	ckSp := tap.Begin(prof.SubCRIU, "checkpoint")
	defer ckSp.End()

	// Initialization phase. The paper's CRIU patch point 1: with OoH the
	// tracked process is not paused for clear_refs; the technique's Init
	// carries whatever cost its mechanism has.
	w := sim.StartWatch(c.clock)
	initSp := tap.Begin(prof.SubCRIU, "init")
	if err := c.Tech.Init(); err != nil {
		initSp.End()
		c.abort(&stats, false) // never initialized: nothing to close
		return nil, stats, fmt.Errorf("criu: tracker init: %w", err)
	}
	initSp.End()
	stats.Init = w.Elapsed()

	// Round 0: full dump of every present page. The round span wraps only
	// the dump itself (page enumeration is not MD/MW work), so a round
	// span's inclusive time always equals that round's MD+MW delta.
	pages := c.presentPages()
	r0Sp := tap.Begin(prof.SubCRIU, prof.RoundOp(0))
	if err := c.dumpRound(img, &stats, pages); err != nil {
		r0Sp.End()
		c.abort(&stats, true)
		return nil, stats, err
	}
	r0Sp.End()

	// Pre-copy rounds: let the workload run, then dump what it dirtied.
	// Each round's collect+dump pair runs under a RoundOp span (the
	// workload pass stays outside it), which is what CriticalPath walks.
	// lastDirty feeds the downtime estimator; -1 until a round has run.
	lastDirty := -1
	for round := 1; round <= c.Opts.MaxRounds; round++ {
		if runBetween != nil {
			if err := runBetween(round); err != nil {
				c.abort(&stats, true)
				return nil, stats, fmt.Errorf("criu: workload (round %d): %w", round, err)
			}
		}
		rSp := tap.Begin(prof.SubCRIU, prof.RoundOp(round))
		dirty, err := c.collect(&stats)
		if err != nil {
			rSp.End()
			c.abort(&stats, true)
			return nil, stats, err
		}
		// Feed the round boundary to the online monitor; its predictor
		// extrapolates the dirty-set series and can flag non-convergence
		// before the SLO guard below can trip.
		v := c.Proc.Kernel().VCPU
		v.Mon.Round(int32(v.ID), monitor.SubCRIU, round, len(dirty),
			c.Opts.Threshold, c.Opts.MaxRounds,
			int64(c.estimatedDowntime(len(dirty))), int64(c.Opts.DowntimeBudget),
			c.clock.Nanos())
		if err := c.dumpRound(img, &stats, dirty); err != nil {
			rSp.End()
			c.abort(&stats, true)
			return nil, stats, err
		}
		rSp.End()
		lastDirty = len(dirty)
		// Converged only when the dirty set is small enough AND its
		// estimated stop-and-copy dump fits the budget; a small-but-slow
		// set keeps pre-copying instead of pausing the process too early.
		if len(dirty) <= c.Opts.Threshold &&
			(c.Opts.DowntimeBudget <= 0 || c.estimatedDowntime(len(dirty)) <= c.Opts.DowntimeBudget) {
			break
		}
	}
	if c.Opts.DowntimeBudget > 0 && lastDirty >= 0 &&
		c.estimatedDowntime(lastDirty) > c.Opts.DowntimeBudget {
		c.abort(&stats, true)
		return nil, stats, fmt.Errorf("criu: ~%d pending pages need %v, budget %v: %w",
			lastDirty, c.estimatedDowntime(lastDirty), c.Opts.DowntimeBudget, ErrSLOAbort)
	}

	// Final stop-and-copy: pause the process, drain the last dirty set.
	c.Proc.Pause()
	sacSp := tap.Begin(prof.SubCRIU, "stop_and_copy")
	dirty, err := c.collect(&stats)
	if err != nil {
		sacSp.End()
		c.abort(&stats, true)
		return nil, stats, err
	}
	if err := c.dumpRound(img, &stats, dirty); err != nil {
		sacSp.End()
		c.abort(&stats, true)
		return nil, stats, err
	}
	sacSp.End()
	if err := c.Tech.Close(); err != nil {
		c.abort(&stats, false) // Close already failed; don't close twice
		return nil, stats, fmt.Errorf("criu: tracker close: %w", err)
	}
	if c.Opts.KeepRunning {
		c.Proc.Resume()
	}

	img.Rounds = stats.Rounds
	stats.Wall = total.Elapsed()
	stats.Total = stats.Init + stats.MD + stats.MW
	stats.Final = len(img.Pages)
	return img, stats, nil
}

// estimatedDowntime is the stop-and-copy estimate for n pending pages:
// the per-page image write is what dominates the paused window.
func (c *Checkpointer) estimatedDowntime(n int) time.Duration {
	return time.Duration(n) * c.Proc.Kernel().Model.DiskWritePage
}

// collect runs the technique's collection, attributing its time to MD for
// the collect-then-write techniques and to MW for /proc's interleaved walk
// (paper §VI-F: "with SPML and EPML it first collects all dirty pages from
// the ring buffer and then writes them").
func (c *Checkpointer) collect(stats *Stats) ([]mem.GVA, error) {
	v := c.Proc.Kernel().VCPU
	sp := v.Begin(prof.SubCRIU, "collect")
	// A transient collection failure is retried a bounded number of times
	// with doubling charged backoff (the wait lands inside this round's
	// MD/MW span); anything else, or exhaustion, aborts the round.
	dirty, err := c.Tech.Collect()
	backoff := collectBackoff
	for retry := 0; err != nil && errors.Is(err, faults.ErrTransient) && retry < c.Opts.MaxCollectRetries; retry++ {
		stats.CollectRetries++
		v.Met.Count(metrics.SubCRIU, "collect_retries_total", "", 1)
		c.clock.Advance(backoff)
		backoff *= 2
		dirty, err = c.Tech.Collect()
	}
	if err != nil {
		sp.End()
		return nil, fmt.Errorf("criu: collect: %w", err)
	}
	if c.Tech.Kind() == costmodel.Proc {
		stats.MW += sp.Event(trace.KindCRIUMW, 0, int64(len(dirty)))
	} else {
		stats.MD += sp.Event(trace.KindCRIUMD, 0, int64(len(dirty)))
	}
	return dirty, nil
}

// dumpRound reads and writes one round's pages into the image.
func (c *Checkpointer) dumpRound(img *Image, stats *Stats, pages []mem.GVA) error {
	sp := c.Proc.Kernel().VCPU.Begin(prof.SubCRIU, "dump")
	defer sp.End()
	model := c.Proc.Kernel().Model
	n := 0
	for _, gva := range pages {
		gva = gva.PageFloor()
		content, err := c.Proc.ReadPage(gva)
		if err != nil {
			if errors.Is(err, pgtable.ErrNotMapped) {
				continue // page unmapped since it was collected
			}
			return fmt.Errorf("criu: reading %v: %w", gva, err)
		}
		if err := img.AddPage(gva, content); err != nil {
			return err
		}
		c.clock.Advance(model.DiskWritePage)
		n++
	}
	stats.MW += sp.Event(trace.KindCRIUMW, 0, int64(n))
	stats.Rounds++
	stats.PagesPer = append(stats.PagesPer, n)
	stats.Dumped += n
	return nil
}

// presentPages enumerates every present page of the process (round 0).
func (c *Checkpointer) presentPages() []mem.GVA {
	var pages []mem.GVA
	model := c.Proc.Kernel().Model
	c.Proc.PT.Range(func(gva mem.GVA, pte pgtable.PTE) bool {
		pages = append(pages, gva)
		return true
	})
	c.clock.Advance(model.KernelPageOp * time.Duration(len(pages)))
	return pages
}

// Restore recreates a process from an image inside kernel k. The new
// process has the same name, regions and page contents.
func Restore(k *guestos.Kernel, img *Image) (*guestos.Process, error) {
	p := k.Spawn(img.Name + ":restored")
	for _, r := range img.Regions {
		if err := p.MmapAt(r); err != nil {
			return nil, fmt.Errorf("criu: restore mapping: %w", err)
		}
	}
	for _, gva := range img.SortedPages() {
		if err := p.WritePageKernel(gva, img.Pages[gva]); err != nil {
			return nil, fmt.Errorf("criu: restore page %v: %w", gva, err)
		}
	}
	return p, nil
}

// Verify compares the restored process's memory against the original's,
// returning the first mismatching page (checkpoint correctness test).
func Verify(orig, restored *guestos.Process) error {
	var firstErr error
	orig.PT.Range(func(gva mem.GVA, pte pgtable.PTE) bool {
		want, err := orig.ReadPage(gva)
		if err != nil {
			firstErr = err
			return false
		}
		got, err := restored.ReadPage(gva)
		if err != nil {
			firstErr = fmt.Errorf("criu: page %v missing in restored process: %w", gva, err)
			return false
		}
		for i := range want {
			if want[i] != got[i] {
				firstErr = fmt.Errorf("criu: page %v differs at byte %d", gva, i)
				return false
			}
		}
		return true
	})
	return firstErr
}
