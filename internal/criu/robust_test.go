package criu

import (
	"errors"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/prof"
	"repro/internal/sim"
)

// setupProc boots a machine (optionally fault-injected) with one process
// owning `pages` populated pages.
func setupProc(t *testing.T, pages int, spec string, seed uint64) (*machine.Guest, *machine.Machine, mem.GVA) {
	t.Helper()
	cfg := machine.Config{}
	if spec != "" {
		parsed, err := faults.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = faults.New(parsed, seed)
	}
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := m.Guest(0)
	proc := g.Kernel.Spawn("app")
	region, err := proc.Mmap(uint64(pages)*mem.PageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(11)
	for p := 0; p < pages; p++ {
		if err := proc.WriteU64(region.Start.Add(uint64(p)*mem.PageSize), rng.Uint64()); err != nil {
			t.Fatal(err)
		}
	}
	return g, m, region.Start
}

// TestCheckpointSLOAbort: a workload dirtying more than the budget's worth
// of pages every round must end in a typed SLO abort with the process
// still running, not a budget-blowing stop-and-copy.
func TestCheckpointSLOAbort(t *testing.T) {
	g, _, base := setupProc(t, 256, "", 0)
	proc, _ := g.Kernel.Process(1)
	tech, err := g.NewTechnique(costmodel.EPML, proc)
	if err != nil {
		t.Fatal(err)
	}
	model := g.Kernel.Model
	ck := New(proc, tech, Options{
		MaxRounds:      3,
		Threshold:      128,                     // page count alone would converge...
		DowntimeBudget: 4 * model.DiskWritePage, // ...but the budget allows ~4 pages
	})
	_, stats, err := ck.Run(func(round int) error {
		for i := 0; i < 64; i++ {
			if err := proc.WriteU64(base.Add(uint64(i)*mem.PageSize), uint64(round)); err != nil {
				return err
			}
		}
		return nil
	})
	if !errors.Is(err, ErrSLOAbort) {
		t.Fatalf("err = %v, want ErrSLOAbort", err)
	}
	if !stats.Aborted {
		t.Error("Stats.Aborted not set")
	}
	if proc.Paused() {
		t.Error("process left paused by an SLO abort")
	}
	if err := proc.WriteU64(base, 0xBEEF); err != nil {
		t.Errorf("process not runnable after abort: %v", err)
	}
}

// TestCheckpointSLOGuardExtendsPreCopy: a dirty set already under the page
// threshold but over the time budget keeps pre-copying until the budget is
// reachable.
func TestCheckpointSLOGuardExtendsPreCopy(t *testing.T) {
	g, _, base := setupProc(t, 128, "", 0)
	proc, _ := g.Kernel.Process(1)
	tech, err := g.NewTechnique(costmodel.EPML, proc)
	if err != nil {
		t.Fatal(err)
	}
	model := g.Kernel.Model
	budget := 6 * model.DiskWritePage
	ck := New(proc, tech, Options{
		MaxRounds:      8,
		Threshold:      64, // every round converges by count...
		DowntimeBudget: budget,
	})
	// ...but only the round collecting <= 6 pages fits the budget:
	// the write set shrinks 32, 16, 8, 4.
	img, stats, err := ck.Run(func(round int) error {
		n := 32 >> uint(round-1)
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			if err := proc.WriteU64(base.Add(uint64(i)*mem.PageSize), uint64(round)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds <= 3 {
		t.Errorf("guard did not extend pre-copy: %d rounds", stats.Rounds)
	}
	if len(img.Pages) != 128 {
		t.Errorf("image has %d pages, want 128", len(img.Pages))
	}
}

// TestCheckpointInitFailureAbortsCleanly: a technique whose hardware is
// absent fails Init with a typed error; the checkpoint must abort without
// pausing the process.
func TestCheckpointInitFailureAbortsCleanly(t *testing.T) {
	g, _, base := setupProc(t, 16, "epml-absent", 1)
	proc, _ := g.Kernel.Process(1)
	tech, err := g.NewTechnique(costmodel.EPML, proc)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := New(proc, tech, Options{}).Run(nil)
	if !errors.Is(err, faults.ErrUnsupported) {
		t.Fatalf("err = %v, want wrapped faults.ErrUnsupported", err)
	}
	if !stats.Aborted {
		t.Error("Stats.Aborted not set")
	}
	if proc.Paused() {
		t.Error("process paused by a failed init")
	}
	if err := proc.WriteU64(base, 1); err != nil {
		t.Errorf("process not runnable: %v", err)
	}
}

// TestCheckpointWorkloadErrorAbortsCleanly: an error from the workload
// callback aborts the checkpoint with the tracker torn down and the
// process running.
func TestCheckpointWorkloadErrorAbortsCleanly(t *testing.T) {
	g, _, base := setupProc(t, 32, "", 0)
	proc, _ := g.Kernel.Process(1)
	tech, err := g.NewTechnique(costmodel.EPML, proc)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("workload exploded")
	_, stats, err := New(proc, tech, Options{}).Run(func(round int) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped workload error", err)
	}
	if !stats.Aborted {
		t.Error("Stats.Aborted not set")
	}
	if proc.Paused() {
		t.Error("process paused by a failed workload pass")
	}
	// The tracker session was closed: hypervisor-level logging disarmed.
	if g.VM.EnabledByHyp() {
		t.Error("dirty logging still armed after abort")
	}
	if err := proc.WriteU64(base, 1); err != nil {
		t.Errorf("process not runnable: %v", err)
	}
}

// TestCheckpointCollectRetryTransient: transient drain-hypercall failures
// are absorbed by the checkpointer's bounded charged retry, and the
// checkpoint still completes with a full image.
func TestCheckpointCollectRetryTransient(t *testing.T) {
	// SPML collects via the drain_ring hypercall - the site hc-drain-fail
	// makes transiently fail.
	g, _, base := setupProc(t, 64, "hc-drain-fail:0.5", 1)
	proc, _ := g.Kernel.Process(1)
	tech, err := g.NewTechnique(costmodel.SPML, proc)
	if err != nil {
		t.Fatal(err)
	}
	before := g.Kernel.Clock.Nanos()
	img, stats, err := New(proc, tech, Options{MaxRounds: 4, Threshold: 1, MaxCollectRetries: 10, KeepRunning: true}).Run(func(round int) error {
		// Stay above the threshold so every round (and its collect) runs.
		for i := 0; i < 4; i++ {
			if err := proc.WriteU64(base.Add(uint64(i)*mem.PageSize), uint64(round)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CollectRetries == 0 {
		t.Error("a 40% drain-failure rate fired no collect retries")
	}
	if len(img.Pages) != 64 {
		t.Errorf("image has %d pages, want 64", len(img.Pages))
	}
	// Backoff is charged virtual time, not free: the clock moved at least
	// one base backoff per retry.
	if elapsed := time.Duration(g.Kernel.Clock.Nanos() - before); elapsed < time.Duration(stats.CollectRetries)*50*time.Microsecond {
		t.Errorf("retries not charged: %v elapsed for %d retries", elapsed, stats.CollectRetries)
	}
}

// TestCheckpointErrorPathsEndSpans pins the span-leak fix: a round whose
// collect fails must end its RoundOp span before the abort teardown runs,
// so the tracker-close work is attributed to the checkpoint, never nested
// under a dead round (which is how leaked spans skewed CriticalPath).
func TestCheckpointErrorPathsEndSpans(t *testing.T) {
	p := prof.New()
	parsed, err := faults.ParseSpec("hc-drain-fail")
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(machine.Config{Faults: faults.New(parsed, 1), Profiler: p})
	if err != nil {
		t.Fatal(err)
	}
	g := m.Guest(0)
	proc := g.Kernel.Spawn("app")
	region, err := proc.Mmap(8*mem.PageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := proc.WriteU64(region.Start, 1); err != nil {
		t.Fatal(err)
	}
	tech, err := g.NewTechnique(costmodel.SPML, proc)
	if err != nil {
		t.Fatal(err)
	}
	// Rate-1 drain failure: collect dies inside round 1 even after the
	// bounded retries, and the checkpoint aborts (closing the tracker).
	if _, stats, err := New(proc, tech, Options{}).Run(nil); !errors.Is(err, faults.ErrTransient) {
		t.Fatalf("err = %v (stats %+v), want wrapped faults.ErrTransient", err, stats)
	}
	for _, ps := range p.Tree().Paths() {
		inRound := false
		for _, f := range ps.Path {
			if f.Sub == prof.SubCRIU && len(f.Op) > 5 && f.Op[:5] == "round" {
				inRound = true
				continue
			}
			if inRound && f.Sub == prof.SubTracking && f.Op == "close" {
				t.Errorf("tracker close nested under a dead round span: %v", ps.Path)
			}
			if inRound && f.Op == "checkpoint" {
				t.Errorf("checkpoint span nested under a round: %v", ps.Path)
			}
		}
	}
}
