// Package experiments implements one driver per table and figure of the
// paper's evaluation (§VI), each regenerating the same rows or series from
// the simulated stack. The `oohbench` command and the root bench suite are
// thin wrappers over this package.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/boehmgc"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/criu"
	"repro/internal/guestos"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracking"
	"repro/internal/workloads"
)

// Options tunes every experiment.
type Options struct {
	// Scale multiplies workload sizes toward the paper's absolutes
	// (default 1: laptop-tractable sizes preserving all ratios).
	Scale int
	// Runs averages each measurement over this many runs (paper: 5).
	Runs int
	// Workers bounds the experiment-level fan-out (0 = GOMAXPROCS).
	Workers int
	// Full includes the most expensive points (500 MB / 1 GB micro sizes,
	// all Boehm applications) that are skipped by default.
	Full bool
	// Seed for workload data generation. A zero Seed is substituted with
	// DefaultSeed unless SeedSet says it was chosen deliberately.
	Seed uint64
	// SeedSet marks Seed as explicitly chosen, so an explicit 0 is honored
	// instead of being treated as "unset". CLIs set this whenever a -seed
	// flag was parsed.
	SeedSet bool
	// Tracer, when non-nil, is attached to each scenario's monitored
	// machine (never the ideal baseline) so every simulated layer emits
	// trace records. Parallel grids give each cell its own trace.Shard and
	// merge into this tracer after the barrier, so any Workers value
	// observes the same deterministic stream.
	Tracer *trace.Tracer
	// FaultSpec, when non-empty, adds a custom row to the fault-matrix
	// experiment (faults.ParseSpec grammar). Other experiments ignore it.
	FaultSpec string
	// Metrics, when non-nil, is attached to each scenario's monitored
	// machine (never the ideal baseline) so every layer feeds the metrics
	// registry. Parallel grids give each cell its own registry and fold
	// them into this one with Registry.Merge after the barrier.
	Metrics *metrics.Registry
	// Profiler, when non-nil, is attached to each scenario's monitored
	// machine (never the ideal baseline) so hot paths fold virtual-time
	// spans into its call-path tree. Parallel grids give each cell its own
	// Profiler and fold them into this one with Profiler.Merge after the
	// barrier, so any Workers value yields the same profile.
	Profiler *prof.Profiler
	// Monitor, when non-nil, is the online monitoring plane attached to
	// each scenario's monitored machine: live dirty-rate estimators, alert
	// rules and the convergence predictor. Parallel grids Fork one monitor
	// per cell and fold them into this one with Monitor.Merge after the
	// barrier, so the alert timeline and estimator series are byte-
	// identical at any Workers value.
	Monitor *monitor.Monitor
	// ColdBoot disables the snapshot-fork fast path: every grid cell boots
	// and warms its own machine from scratch instead of forking a pooled
	// copy-on-write snapshot of the warm image. Output is byte-identical
	// either way - the fork-determinism CI leg pins this - so cold boots
	// are only useful for debugging the fast path itself.
	ColdBoot bool
}

// DefaultSeed is the seed used when none was chosen (Seed == 0 and
// !SeedSet).
const DefaultSeed uint64 = 42

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Runs <= 0 {
		o.Runs = 1
	}
	if o.Seed == 0 && !o.SeedSet {
		o.Seed = DefaultSeed
	}
	return o
}

// microSizesMB is Table I / Fig. 4's memory axis; the last two points only
// run with Options.Full.
var microSizesMB = []int{1, 10, 50, 100, 250, 500, 1024}

func (o Options) microSizes() []int {
	if o.Full {
		return microSizesMB
	}
	return microSizesMB[:5]
}

// MicroResult is one (technique, size) cell of the microbenchmark grid.
type MicroResult struct {
	Technique   costmodel.Technique
	Pages       int
	Ideal       time.Duration // unmonitored execution of the same passes
	Tracked     time.Duration // monitored execution, from the start of monitoring
	TrackedWall time.Duration // monitored execution including initialization
	Tracker     time.Duration // technique-attributed time E(C_x)
	Breakdown   tracking.Stats
	Counts      costmodel.EventCounts
	// Fetch is the last collection's Fig. 3 decomposition (PML techniques
	// only).
	Fetch core.FetchBreakdown
}

// TrackedOverheadPct returns the Table I overhead on Tracked.
func (r MicroResult) TrackedOverheadPct() float64 {
	if r.Ideal == 0 {
		return 0
	}
	return float64(r.Tracked-r.Ideal) / float64(r.Ideal) * 100
}

// TrackerOverheadPct returns the Table I overhead on Tracker: the
// technique's own time relative to the ideal run (the paper sets Tracker's
// ideal time equal to Tracked's).
func (r MicroResult) TrackerOverheadPct() float64 {
	if r.Ideal == 0 {
		return 0
	}
	return float64(r.Tracker) / float64(r.Ideal) * 100
}

// Slowdown returns Tracked/Ideal (Fig. 4's y-axis).
func (r MicroResult) Slowdown() float64 {
	if r.Ideal == 0 {
		return 1
	}
	return float64(r.Tracked) / float64(r.Ideal)
}

// microPasses is how many passes the array parser makes per measurement;
// the tracker collects after each pass.
const microPasses = 3

// runMicro executes the Listing-1 scenario under one technique and returns
// the measured times and raw event counts. p's tracer and metrics registry
// (either may be nil) observe the monitored run only - probes attach after
// warm-up, so forked and cold-booted cells emit identical streams. cold
// forces the boot+warm prefix to rerun instead of forking the pooled
// snapshot (Options.ColdBoot; output is byte-identical either way).
func runMicro(kind costmodel.Technique, pages int, seed uint64, p machine.Config, cold bool) (MicroResult, error) {
	res := MicroResult{Technique: kind, Pages: pages}

	// Ideal run: same warmed machine, no tracking, no probes.
	ideal, err := timeMicroPasses(pages, seed, cold)
	if err != nil {
		return res, err
	}
	res.Ideal = ideal

	// Monitored run.
	g, proc, w, err := warmMicro(pages, seed, p, cold)
	if err != nil {
		return res, err
	}
	tech, err := g.NewTechnique(kind, proc)
	if err != nil {
		return res, err
	}
	before := g.Kernel.VCPU.Counters.Snapshot()
	if err := tech.Init(); err != nil {
		return res, err
	}
	// Tracked is suspended during the initialization phase (§III, Fig. 1);
	// its measured execution starts when monitoring begins.
	start := g.Kernel.Clock.Nanos()
	for pass := 0; pass < microPasses; pass++ {
		if err := w.Run(); err != nil {
			return res, err
		}
	}
	// One collection phase after monitoring, per Fig. 1's workflow.
	if _, err := tech.Collect(); err != nil {
		return res, err
	}
	res.Tracked = time.Duration(g.Kernel.Clock.Nanos() - start)
	res.Breakdown = tech.Stats()
	res.TrackedWall = res.Tracked + res.Breakdown.InitTime
	res.Tracker = res.Breakdown.TechniqueTime()
	res.Counts = countsFrom(g.Kernel, before, proc.ReservedBytes())
	if pml, ok := tech.(*tracking.PMLTechnique); ok {
		res.Fetch = pml.LastBreakdown()
	}
	if err := tech.Close(); err != nil {
		return res, err
	}
	return res, nil
}

// timeMicroPasses measures the unmonitored passes on a warmed machine
// (forked from the same pooled snapshot the monitored run uses, unless
// cold).
func timeMicroPasses(pages int, seed uint64, cold bool) (time.Duration, error) {
	g, _, w, err := warmMicro(pages, seed, machine.Config{}, cold)
	if err != nil {
		return 0, err
	}
	start := g.Kernel.Clock.Nanos()
	for pass := 0; pass < microPasses; pass++ {
		if err := w.Run(); err != nil {
			return 0, err
		}
	}
	return time.Duration(g.Kernel.Clock.Nanos() - start), nil
}

// countsFrom converts a counter delta into the formula engine's inputs.
func countsFrom(k *guestos.Kernel, before map[string]int64, ws uint64) costmodel.EventCounts {
	after := k.VCPU.Counters.Snapshot()
	d := func(name string) int64 { return after[name] - before[name] }
	return costmodel.EventCounts{
		MemBytes:         ws,
		ContextSwitches:  d(guestos.CtrContextSwitches),
		KernelFaults:     d(guestos.CtrSoftDirtyFaults) + d(guestos.CtrDemandFaults),
		UserFaults:       d(guestos.CtrUfdFaults),
		VMExits:          d("vmexits"),
		VMReads:          d("vmreads"),
		VMWrites:         d("vmwrites"),
		ClearRefsCalls:   d(guestos.CtrClearRefs),
		PagesWalked:      d(guestos.CtrPagemapPages),
		ReverseMapLookup: d("ring_entries_copied"),
		RBEntriesCopied:  d("ring_entries_copied"),
		EnableLogCalls:   d("hc_enable_logging"),
		DisableLogCalls:  d("hc_disable_logging"),
		InitCalls:        d("hc_init_pml") + d("hc_init_shadowing"),
		DeactCalls:       d("hc_deact_pml"),
		WPIoctls:         d(guestos.CtrUfdIoctls),
	}
}

// CRIUResult is one (workload, technique) cell of the CRIU grid.
type CRIUResult struct {
	Workload  string
	Technique costmodel.Technique
	Stats     criu.Stats
	Ideal     time.Duration // workload runs without checkpointing
	Tracked   time.Duration // workload runs with checkpointing interleaved
	Verified  bool
}

// TrackedOverheadPct is Fig. 9's y-axis.
func (r CRIUResult) TrackedOverheadPct() float64 {
	if r.Ideal == 0 {
		return 0
	}
	return float64(r.Tracked-r.Ideal) / float64(r.Ideal) * 100
}

// criuRuns is how many workload passes surround the checkpoint.
const criuRuns = 3

// runCRIU checkpoints a workload under one technique, verifying the
// restored image, and measures the impact on the workload. p's probes
// (either may be nil) observe the monitored run only.
func runCRIU(name string, size workloads.Size, scale int, kind costmodel.Technique, seed uint64, p machine.Config) (CRIUResult, error) {
	res := CRIUResult{Workload: name, Technique: kind}

	// Ideal: the workload's passes without checkpointing.
	{
		m, err := machine.New(machine.Config{})
		if err != nil {
			return res, err
		}
		g := m.Guest(0)
		proc := g.Kernel.Spawn(name)
		w, err := workloads.New(name, size, scale)
		if err != nil {
			return res, err
		}
		if err := w.Setup(workloads.NewRegionAlloc(proc, false), sim.NewRNG(seed)); err != nil {
			return res, err
		}
		start := g.Kernel.Clock.Nanos()
		for i := 0; i < criuRuns; i++ {
			if err := w.Run(); err != nil {
				return res, err
			}
		}
		res.Ideal = time.Duration(g.Kernel.Clock.Nanos() - start)
	}

	// Monitored: same passes with a pre-copy checkpoint interleaved.
	m, err := machine.New(p)
	if err != nil {
		return res, err
	}
	g := m.Guest(0)
	proc := g.Kernel.Spawn(name)
	w, err := workloads.New(name, size, scale)
	if err != nil {
		return res, err
	}
	if err := w.Setup(workloads.NewRegionAlloc(proc, false), sim.NewRNG(seed)); err != nil {
		return res, err
	}
	tech, err := g.NewTechnique(kind, proc)
	if err != nil {
		return res, err
	}
	ckpt := criu.New(proc, tech, criu.Options{MaxRounds: criuRuns - 1, KeepRunning: true})
	start := g.Kernel.Clock.Nanos()
	if err := w.Run(); err != nil {
		return res, err
	}
	runs := 1
	img, stats, err := ckpt.Run(func(round int) error {
		runs++
		return w.Run()
	})
	if err != nil {
		return res, err
	}
	res.Stats = stats

	// Verify the image against the memory as of the checkpoint, before
	// the compensation passes below mutate it. Restore and Verify are
	// host-side and charge no virtual time.
	restored, err := criu.Restore(g.Kernel, img)
	if err != nil {
		return res, err
	}
	if err := criu.Verify(proc, restored); err != nil {
		return res, fmt.Errorf("criu verify (%s/%s): %w", name, kind, err)
	}
	res.Verified = true

	// Pre-copy may converge early; complete the remaining passes so the
	// monitored run does exactly the same application work as the ideal.
	for ; runs < criuRuns; runs++ {
		if err := w.Run(); err != nil {
			return res, err
		}
	}
	res.Tracked = time.Duration(g.Kernel.Clock.Nanos() - start)
	return res, nil
}

// BoehmResult is one (app, config, technique) cell of the Boehm grid.
type BoehmResult struct {
	App       string
	Size      workloads.Size
	Technique costmodel.Technique
	Cycles    []boehmgc.CycleStats
	GCTime    time.Duration // total garbage collection time (Fig. 5)
	FirstGC   time.Duration // first cycle (SPML's reverse-map spike)
	AppTime   time.Duration // tracked application wall time (Fig. 6)
	Ideal     time.Duration // app time when not tracked (technique = none)
}

// TrackedOverheadPct is Fig. 6's y-axis.
func (r BoehmResult) TrackedOverheadPct() float64 {
	if r.Ideal == 0 {
		return 0
	}
	return float64(r.AppTime-r.Ideal) / float64(r.Ideal) * 100
}

// boehmPasses is how many workload passes run between forced GC cycles.
const boehmPasses = 4

// runBoehm executes an application with Boehm GC using one technique for
// its incremental cycles. kind == Oracle means "untracked" (full traces,
// no dirty technique), the paper's baseline. p's probes (either may be
// nil) observe the run.
func runBoehm(app string, size workloads.Size, scale int, kind costmodel.Technique, seed uint64, p machine.Config) (BoehmResult, error) {
	m, err := machine.New(p)
	if err != nil {
		return BoehmResult{App: app, Size: size, Technique: kind}, err
	}
	return runBoehmOn(m.Guest(0), app, size, scale, kind, seed)
}

// runBoehmOn is runBoehm against an existing guest (the multi-VM
// scalability experiments boot several guests on one host and run this
// concurrently, one goroutine per VM).
func runBoehmOn(g *machine.Guest, app string, size workloads.Size, scale int, kind costmodel.Technique, seed uint64) (BoehmResult, error) {
	res := BoehmResult{App: app, Size: size, Technique: kind}
	proc := g.Kernel.Spawn(app)

	// Size the collected heap to the application (3x its working set,
	// clamped), as a real Boehm heap would grow; a fixed giant arena
	// would make every pagemap walk cost the same regardless of app.
	heapBytes := uint64(48<<20) * uint64(scale) // gcbench default
	if app != "gcbench" {
		if w, err := workloads.New(app, size, scale); err == nil {
			ws := w.WorkingSet() * 3
			if ws < 8<<20 {
				ws = 8 << 20
			}
			if max := uint64(512 << 20); ws > max {
				ws = max
			}
			heapBytes = ws
		}
	}
	gc, err := boehmgc.New(proc, heapBytes, nil)
	if err != nil {
		return res, err
	}
	if kind != costmodel.Oracle {
		tech, err := g.NewTechnique(kind, proc)
		if err != nil {
			return res, err
		}
		if pml, ok := tech.(*tracking.PMLTechnique); ok {
			// The paper's Boehm integration reuses the reverse index
			// built in the first cycle (footnote 2).
			pml.ReuseReverseIndex = true
		}
		gc.Tech = tech
		// Track from the start: the first cycle then pays the full
		// first-collection cost over everything the app initializes
		// (SPML's Fig. 5 reverse-mapping spike).
		if err := gc.StartIncremental(); err != nil {
			return res, err
		}
	}

	start := g.Kernel.Clock.Nanos()
	if app == "gcbench" {
		b := workloads.GCBenchConfig(size, scale)
		if err := b.SetupGC(gc, sim.NewRNG(seed)); err != nil {
			return res, err
		}
		for i := 0; i < boehmPasses; i++ {
			if err := b.Run(); err != nil {
				return res, err
			}
			if _, err := gc.Collect(); err != nil {
				return res, err
			}
		}
		if err := b.CheckTree(); err != nil {
			return res, fmt.Errorf("gcbench invariant: %w", err)
		}
	} else {
		w, err := workloads.New(app, size, scale)
		if err != nil {
			return res, err
		}
		if err := w.Setup(&workloads.GCAlloc{GC: gc}, sim.NewRNG(seed)); err != nil {
			return res, err
		}
		for i := 0; i < boehmPasses; i++ {
			if err := w.Run(); err != nil {
				return res, err
			}
			if _, err := gc.Collect(); err != nil {
				return res, err
			}
		}
	}
	res.AppTime = time.Duration(g.Kernel.Clock.Nanos() - start)
	res.Cycles = gc.Cycles()
	res.GCTime = gc.TotalGCTime()
	if len(res.Cycles) > 0 {
		res.FirstGC = res.Cycles[0].Total
	}
	return res, nil
}
