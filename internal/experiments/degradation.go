package experiments

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/migration"
	"repro/internal/report"
	"repro/internal/sim"
)

// TransportFaultMix is one named transport/destination fault mix of the
// degradation surface. Unlike CannedFaultSpecs (which stress the tracking
// stack), these stress the migration transport: the tracking techniques
// themselves stay healthy, and what is measured is whether the
// transactional migration pipeline converges, aborts, or resumes cleanly.
type TransportFaultMix struct {
	Name string
	Spec string
}

// TransportFaultMixes are the canned transport mixes the degradation
// surface (and the CI chaos job) sweeps.
var TransportFaultMixes = []TransportFaultMix{
	{Name: "clean", Spec: ""},
	{Name: "flaky-wire", Spec: "send-fail:0.2,wire-corrupt:0.15"},
	{Name: "stalling-dest", Spec: "dest-stall:0.5,send-fail:0.1"},
	{Name: "crashy", Spec: "round-crash:0.4,send-fail:0.1"},
	{Name: "hostile", Spec: "send-fail:0.2,wire-corrupt:0.15,dest-stall:0.3,round-crash:0.3"},
}

// degradation-surface grid constants. The workload axis is dirtying
// intensity: "quiet" converges well inside the downtime budget, "storm"
// dirties faster than the budget allows, so its cells must end in a clean
// SLO abort rather than a budget-blowing stop-and-copy.
const (
	degPages          = 128
	degQuietWrites    = 8
	degStormWrites    = 100
	degMaxRounds      = 5
	degResumeAttempts = 3
)

// degTechniques is the technique axis: a concurrent Resilient tracking
// session at this rung runs inside the migrating VM, proving per-process
// tracking keeps working (and stays collectable) while the VM itself is
// being live-migrated under transport faults - the paper's §IV-C
// coordination exercised end to end.
var degTechniques = []costmodel.Technique{costmodel.EPML, costmodel.SPML}

// degCell is one (mix, technique, workload) cell's outcome row.
type degCell struct {
	mix, tech, load string
	outcome         string
	stats           migration.Stats
	tracked         int64  // pages the concurrent tracking session reported
	exact           string // final-image oracle exactness ("-" when aborted)
}

// degWorkloads is the workload axis.
var degWorkloads = []struct {
	name   string
	writes int
}{
	{"quiet", degQuietWrites},
	{"storm", degStormWrites},
}

// runDegradationCell migrates one VM under one transport fault mix while a
// workload dirties memory and a Resilient session tracks it, classifying
// the outcome and checking the terminal state: a completed migration's
// image must be oracle-exact, and any abort must leave the source guest
// runnable with dirty logging disarmed.
func runDegradationCell(mix TransportFaultMix, tech costmodel.Technique, writes int,
	seed uint64, cellIdx int, p machine.Config) (degCell, error) {

	load := "quiet"
	if writes > degQuietWrites {
		load = "storm"
	}
	cell := degCell{mix: mix.Name, tech: tech.String(), load: load, exact: "-"}
	fail := func(err error) (degCell, error) {
		return cell, fmt.Errorf("degradation %s/%s/%s: %w", mix.Name, cell.tech, load, err)
	}

	parsed, err := faults.ParseSpec(mix.Spec)
	if err != nil {
		return fail(err)
	}
	inj := faults.New(parsed, seed^0xDE67AD^uint64(cellIdx)*0x9E37)
	p.Faults = inj
	m, err := machine.New(p)
	if err != nil {
		return fail(err)
	}
	g := m.Guest(0)
	proc := g.Kernel.Spawn("victim")
	region, err := proc.Mmap(degPages*mem.PageSize, true)
	if err != nil {
		return fail(err)
	}
	rng := sim.NewRNG(seed ^ uint64(cellIdx))
	for pg := 0; pg < degPages; pg++ {
		if err := proc.WriteU64(region.Start.Add(uint64(pg)*mem.PageSize), rng.Uint64()); err != nil {
			return fail(err)
		}
	}

	// The concurrent tracking session: collected every round, closed
	// whatever way the migration ends.
	session := g.NewResilient(tech, proc)
	if err := session.Init(); err != nil {
		return fail(err)
	}
	defer session.Close()

	runBetween := func(round int) error {
		for i := 0; i < writes; i++ {
			off := rng.Uint64n(degPages) * mem.PageSize
			if err := proc.WriteU64(region.Start.Add(off), rng.Uint64()); err != nil {
				return err
			}
		}
		got, err := session.Collect()
		if err != nil {
			return fmt.Errorf("concurrent tracking: %w", err)
		}
		cell.tracked += int64(len(got))
		return nil
	}

	opts := migration.Options{
		MaxRounds:           degMaxRounds,
		DowntimeTargetPages: 16,
		DowntimeBudget:      150_000, // 150us: ~38 pages at the default bandwidth
		MaxSendRetries:      8,       // storm cells push thousands of sends through the lossy wire
	}
	image, stats, err := migration.Migrate(g.VM, opts, runBetween)
	attempts := 0
	for err != nil {
		var ce *migration.CrashError
		if !errors.As(err, &ce) || attempts >= degResumeAttempts {
			break
		}
		attempts++
		image, stats, err = migration.Resume(g.VM, ce.Journal, runBetween)
	}
	cell.stats = stats

	switch {
	case err == nil:
		cell.outcome = "completed"
		if stats.Converged {
			cell.outcome = "converged"
		}
	case errors.Is(err, migration.ErrSLOAbort):
		cell.outcome = "slo-abort"
	case errors.Is(err, migration.ErrSendFailed):
		// A page exhausted its retry budget: the pipeline aborted the
		// migration itself; the clean-abort checks below still apply.
		cell.outcome = "send-abort"
	case errors.Is(err, migration.ErrRoundCrash):
		// Out of resume attempts: abandon the migration cleanly.
		var ce *migration.CrashError
		errors.As(err, &ce)
		migration.Abort(g.VM, ce.Journal)
		cell.stats = ce.Journal.Stats
		cell.outcome = "crashed"
	default:
		return fail(err)
	}

	if err == nil {
		// Oracle exactness both directions: every mapped frame present,
		// every image frame equal to the live source memory.
		cell.exact = "yes"
		// The image must cover every mapped guest frame - the workload
		// region plus whatever the tracking session mapped (its ring).
		if mapped := g.VM.EPT.Mapped(); len(image) != mapped {
			cell.exact = "NO"
			return fail(fmt.Errorf("final image has %d frames, VM maps %d", len(image), mapped))
		}
		buf := make([]byte, mem.PageSize)
		for gpa, want := range image {
			if err := g.VM.VCPU.KernelReadGPA(gpa, buf); err != nil {
				return fail(err)
			}
			if !bytes.Equal(buf, want) {
				cell.exact = "NO"
				return fail(fmt.Errorf("image frame %v differs from source", gpa))
			}
		}
	} else {
		// Aborted paths must leave no silent partial state: dirty logging
		// disarmed and the source guest still writable.
		if g.VM.EnabledByHyp() {
			return fail(errors.New("dirty logging still armed after abort"))
		}
		if err := proc.WriteU64(region.Start, 0xAB0DE); err != nil {
			return fail(fmt.Errorf("source not runnable after abort: %w", err))
		}
	}
	return cell, nil
}

// DegradationSurface sweeps the transport-fault x technique x workload
// grid: every cell live-migrates a VM (with a concurrent in-guest tracking
// session) under one canned transport fault mix, and must either complete
// with an oracle-exact image or abort/resume cleanly - no hangs, no
// panics, no silent partial images. Cells are probed through per-cell
// shards, so the merged observation stream is byte-identical at any
// Workers count.
func DegradationSurface(opt Options) (*Result, error) {
	opt = opt.withDefaults()
	type cellSpec struct {
		mix    TransportFaultMix
		tech   costmodel.Technique
		writes int
	}
	var grid []cellSpec
	for _, mix := range TransportFaultMixes {
		for _, tech := range degTechniques {
			for _, w := range degWorkloads {
				grid = append(grid, cellSpec{mix, tech, w.writes})
			}
		}
	}

	cells, err := sweep(opt, len(grid), func(i int, p machine.Config) (degCell, error) {
		return runDegradationCell(grid[i].mix, grid[i].tech, grid[i].writes, opt.Seed, i, p)
	})
	if err != nil {
		return nil, err
	}

	t := report.NewTable("Degradation surface: transactional migration under transport faults",
		"Mix", "Tech", "Load", "Outcome", "Rounds", "Resumes", "Retries", "Resends", "Stalls", "Downtime", "Tracked", "Exact")
	outcomes := map[string]int{}
	for _, c := range cells {
		outcomes[c.outcome]++
		t.AddRow(c.mix, c.tech, c.load, c.outcome, c.stats.Rounds, c.stats.Resumes,
			c.stats.Retries, c.stats.Resends, c.stats.Stalls, c.stats.Downtime.String(),
			c.tracked, c.exact)
	}
	t.AddNote(fmt.Sprintf("outcomes: %d converged, %d completed, %d slo-abort, %d send-abort, %d crashed over %d cells",
		outcomes["converged"], outcomes["completed"], outcomes["slo-abort"],
		outcomes["send-abort"], outcomes["crashed"], len(cells)))
	t.AddNote("every completed cell's image matched live source memory frame for frame; every abort left the source runnable with logging disarmed")
	t.AddNote("a Resilient tracking session ran concurrently inside each migrating VM (Tracked = pages it reported)")
	return &Result{
		ID:     "degradation-surface",
		Title:  "Robustness: migration degradation surface under transport faults",
		Tables: []*report.Table{t},
	}, nil
}
