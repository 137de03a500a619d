package migration

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/prof"
	"repro/internal/sim"
)

// setupFaulted is setupPlain with a fault injector armed on the machine.
func setupFaulted(t *testing.T, pages int, spec string, seed uint64) (*machine.Guest, mem.GVA, *faults.Injector) {
	t.Helper()
	parsed, err := faults.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(parsed, seed)
	m, err := machine.New(machine.Config{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	g := m.Guest(0)
	proc := g.Kernel.Spawn("app")
	region, err := proc.Mmap(uint64(pages)*mem.PageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(77)
	for p := 0; p < pages; p++ {
		if err := proc.WriteU64(region.Start.Add(uint64(p)*mem.PageSize), rng.Uint64()); err != nil {
			t.Fatal(err)
		}
	}
	return g, region.Start, inj
}

// verifyImageExact asserts the destination image matches the source VM's
// live memory frame for frame - the oracle-exactness acceptance property.
func verifyImageExact(t *testing.T, g *machine.Guest, image map[mem.GPA][]byte) {
	t.Helper()
	if len(image) == 0 {
		t.Fatal("empty destination image")
	}
	for gpa, want := range image {
		got := make([]byte, mem.PageSize)
		if err := g.VM.VCPU.KernelReadGPA(gpa, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("migrated page %v differs from live memory", gpa)
		}
	}
}

// verifySourceRunnable asserts the source guest survived a failed (or
// crashed) migration: dirty logging is off, and the guest can still write
// its memory.
func verifySourceRunnable(t *testing.T, g *machine.Guest, base mem.GVA) {
	t.Helper()
	if g.VM.EnabledByHyp() {
		t.Error("hypervisor dirty logging still armed after abort")
	}
	proc, _ := g.Kernel.Process(1)
	if err := proc.WriteU64(base, 0xDEAD_BEEF); err != nil {
		t.Errorf("source guest not runnable after abort: %v", err)
	}
}

func TestMigrationSendRetryRecovers(t *testing.T) {
	g, _, _ := setupFaulted(t, 96, "send-fail:0.3", 9)
	image, stats, err := Migrate(g.VM, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retries == 0 {
		t.Error("a 30% transient send-failure rate fired no retries")
	}
	verifyImageExact(t, g, image)
}

func TestMigrationWireCorruptionCaughtAndResent(t *testing.T) {
	g, _, _ := setupFaulted(t, 96, "wire-corrupt:0.3", 9)
	// A 0.3 corruption rate makes 5 consecutive NACKs on one page likely
	// somewhere in 96 pages; a wider retry bound keeps the run completing.
	image, stats, err := Migrate(g.VM, Options{MaxSendRetries: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resends == 0 {
		t.Error("a 30% wire-corruption rate produced no checksum NACKs")
	}
	// The acceptance property: no corrupted payload ever lands in the
	// image - every acked frame equals the source.
	verifyImageExact(t, g, image)
}

func TestMigrationDestStallCharged(t *testing.T) {
	g, _, _ := setupFaulted(t, 32, "dest-stall", 1)
	_, stats, err := Migrate(g.VM, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Stalls != stats.PagesSent {
		t.Errorf("rate-1 dest-stall: %d stalls for %d sends", stats.Stalls, stats.PagesSent)
	}
	// Every stall charges extra virtual time on top of the wire transfer.
	minimum := time.Duration(stats.PagesSent) * (time.Millisecond/256 + 150*time.Microsecond)
	if stats.TotalTime < minimum {
		t.Errorf("stalls not charged: total %v < %v", stats.TotalTime, minimum)
	}
}

func TestMigrationSendExhaustionAbortsCleanly(t *testing.T) {
	g, base, _ := setupFaulted(t, 64, "send-fail", 1)
	image, stats, err := Migrate(g.VM, Options{}, nil)
	if !errors.Is(err, ErrSendFailed) {
		t.Fatalf("rate-1 send-fail: err = %v, want ErrSendFailed", err)
	}
	if image != nil {
		t.Error("aborted migration returned a partial image")
	}
	if !stats.Aborted {
		t.Error("Stats.Aborted not set")
	}
	verifySourceRunnable(t, g, base)
}

func TestMigrationPersistentCorruptionAborts(t *testing.T) {
	g, base, _ := setupFaulted(t, 16, "wire-corrupt", 1)
	_, stats, err := Migrate(g.VM, Options{}, nil)
	if !errors.Is(err, ErrSendFailed) {
		t.Fatalf("rate-1 wire-corrupt: err = %v, want ErrSendFailed", err)
	}
	if stats.Resends == 0 {
		t.Error("no resends before giving up")
	}
	verifySourceRunnable(t, g, base)
}

func TestMigrationRunBetweenErrorAbortsCleanly(t *testing.T) {
	g, base, _ := setupFaulted(t, 64, "", 1)
	boom := errors.New("guest exploded")
	_, stats, err := Migrate(g.VM, Options{}, func(round int) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped runBetween error", err)
	}
	if !stats.Aborted {
		t.Error("Stats.Aborted not set on runBetween failure")
	}
	verifySourceRunnable(t, g, base)
}

// TestMigrationRoundCrashResumeSendsOnlyDelta is the transactional
// property: after a transport crash between rounds, Resume re-attaches to
// the journal and ships only the pages dirtied since, not the full memory
// again.
func TestMigrationRoundCrashResumeSendsOnlyDelta(t *testing.T) {
	const pages = 128
	g, base, _ := setupFaulted(t, pages, "round-crash", 1)
	proc, _ := g.Kernel.Process(1)

	writes := 0
	runBetween := func(round int) error {
		for i := 0; i < 4; i++ {
			if err := proc.WriteU64(base.Add(uint64((writes+i)%pages)*mem.PageSize), uint64(round)); err != nil {
				return err
			}
		}
		writes += 4
		return nil
	}

	_, _, err := Migrate(g.VM, Options{MaxRounds: 3}, runBetween)
	var ce *CrashError
	if !errors.As(err, &ce) || !errors.Is(err, ErrRoundCrash) {
		t.Fatalf("rate-1 round-crash: err = %v, want CrashError", err)
	}
	if ce.Journal.ImagePages() != pages {
		t.Fatalf("journal preserved %d frames, want the full-copy %d", ce.Journal.ImagePages(), pages)
	}
	if g.VM.EnabledByHyp() != true {
		t.Fatal("dirty logging disarmed by a crash - the resume delta would be lost")
	}
	sentBeforeCrash := ce.Journal.Stats.PagesSent

	// The guest keeps running during the outage; its writes are the delta.
	for i := 0; i < 8; i++ {
		if err := proc.WriteU64(base.Add(uint64(i)*mem.PageSize), 0xC0FFEE+uint64(i)); err != nil {
			t.Fatal(err)
		}
	}

	// The transport comes back: disarm the crash fault and resume.
	g.VM.VCPU.Inj = nil
	image, stats, err := Resume(g.VM, ce.Journal, runBetween)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if stats.Resumes != 1 {
		t.Errorf("Stats.Resumes = %d, want 1", stats.Resumes)
	}
	delta := stats.PagesSent - sentBeforeCrash
	if delta <= 0 || delta >= pages {
		t.Errorf("resume sent %d pages; a delta resume must send fewer than the %d a full restart would", delta, pages)
	}
	if len(image) != pages {
		t.Errorf("final image has %d frames, want %d", len(image), pages)
	}
	verifyImageExact(t, g, image)
}

// TestMigrationAbortDeclinesResume: a caller may abandon a crashed
// migration instead of resuming; the abort must leave the source runnable
// and the journal terminally aborted.
func TestMigrationAbortDeclinesResume(t *testing.T) {
	g, base, _ := setupFaulted(t, 64, "round-crash", 1)
	_, _, err := Migrate(g.VM, Options{}, nil)
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want CrashError", err)
	}
	Abort(g.VM, ce.Journal)
	if ce.Journal.Phase != PhaseAborted {
		t.Errorf("journal phase = %v, want aborted", ce.Journal.Phase)
	}
	if !ce.Journal.Stats.Aborted {
		t.Error("Stats.Aborted not set by Abort")
	}
	if ce.Journal.ImagePages() != 0 {
		t.Error("partial destination image not discarded by Abort")
	}
	verifySourceRunnable(t, g, base)
	// Resuming an aborted journal must refuse, not corrupt.
	if _, _, err := Resume(g.VM, ce.Journal, nil); err == nil {
		t.Error("Resume accepted an aborted journal")
	}
}

// TestMigrationSLOAbort: a workload dirtying faster than the budget allows
// must end in a typed SLO abort with the source untouched, never in a
// budget-blowing stop-and-copy.
func TestMigrationSLOAbort(t *testing.T) {
	g, base, _ := setupFaulted(t, 256, "", 1)
	proc, _ := g.Kernel.Process(1)
	_, stats, err := Migrate(g.VM, Options{
		MaxRounds:           3,
		BandwidthPagesPerMS: 1, // 1 ms per page
		DowntimeTargetPages: 64,
		DowntimeBudget:      5 * time.Millisecond, // at most ~5 pending pages
	}, func(round int) error {
		for i := 0; i < 48; i++ {
			if err := proc.WriteU64(base.Add(uint64(i)*mem.PageSize), uint64(round)); err != nil {
				return err
			}
		}
		return nil
	})
	if !errors.Is(err, ErrSLOAbort) {
		t.Fatalf("err = %v, want ErrSLOAbort", err)
	}
	if !stats.Aborted || stats.Converged {
		t.Errorf("stats = %+v: want aborted, not converged", stats)
	}
	if stats.Downtime != 0 {
		t.Errorf("SLO abort still charged %v downtime - stop-and-copy must have been refused", stats.Downtime)
	}
	verifySourceRunnable(t, g, base)
}

// TestMigrationSLOGuardExtendsPreCopy: a dirty set under the page target
// but over the time budget keeps pre-copying until the budget is reachable
// instead of pausing the guest too early.
func TestMigrationSLOGuardExtendsPreCopy(t *testing.T) {
	g, base, _ := setupFaulted(t, 128, "", 1)
	proc, _ := g.Kernel.Process(1)
	budget := 4 * time.Millisecond // at 1 page/ms: at most 4 pending pages
	_, stats, err := Migrate(g.VM, Options{
		MaxRounds:           6,
		BandwidthPagesPerMS: 1,
		DowntimeTargetPages: 32,
		DowntimeBudget:      budget,
	}, func(round int) error {
		// The write set shrinks each round: 16, 8, 4, 2... - under the
		// 32-page target from round 1, but within budget only from the
		// round collecting <= 4 pages.
		n := 16 >> uint(round-1)
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
	if !stats.Converged {
		t.Fatal("budget-guarded migration did not converge")
	}
	if stats.Downtime > budget {
		t.Errorf("downtime %v exceeds the %v budget the guard promised", stats.Downtime, budget)
	}
	if stats.Rounds <= 2 {
		t.Errorf("guard did not extend pre-copy: only %d rounds", stats.Rounds)
	}
}

func TestDedupStopAndCopySet(t *testing.T) {
	p := func(n uint64) mem.GPA { return mem.GPA(n * mem.PageSize) }
	got := dedup(
		[]mem.GPA{p(3), p(1), p(3) + 8},
		[]mem.GPA{p(1) + 16, p(2), p(3)},
	)
	want := []mem.GPA{p(3), p(1), p(2)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("dedup = %v, want %v", got, want)
	}
}

// TestMigrationFaultedDeterminism: a faulted migration is a pure function
// of (memory seed, fault spec, injector seed) - two identical runs agree
// on every stat and every image byte.
func TestMigrationFaultedDeterminism(t *testing.T) {
	run := func() (Stats, map[mem.GPA][]byte) {
		g, base, _ := setupFaulted(t, 64, "send-fail:0.2,wire-corrupt:0.2,dest-stall:0.3", 5)
		proc, _ := g.Kernel.Process(1)
		image, stats, err := Migrate(g.VM, Options{MaxRounds: 4}, func(round int) error {
			return proc.WriteU64(base.Add(uint64(round)*mem.PageSize), uint64(round))
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats, image
	}
	s1, i1 := run()
	s2, i2 := run()
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("stats diverged:\n%+v\n%+v", s1, s2)
	}
	if len(i1) != len(i2) {
		t.Fatalf("image sizes diverged: %d vs %d", len(i1), len(i2))
	}
	for gpa, b1 := range i1 {
		if !bytes.Equal(b1, i2[gpa]) {
			t.Errorf("image content diverged at %v", gpa)
		}
	}
}

// TestMigrationErrorPathsEndSpans pins the span-leak fix: failed
// migrations must leave the profiler's span stack balanced, so repeated
// failures never nest later spans under dead rounds (which skewed
// CriticalPath attribution exactly when failures occurred).
func TestMigrationErrorPathsEndSpans(t *testing.T) {
	parsed, err := faults.ParseSpec("send-fail")
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(parsed, 1)
	p := prof.New()
	m, err := machine.New(machine.Config{Faults: inj, Profiler: p})
	if err != nil {
		t.Fatal(err)
	}
	g := m.Guest(0)
	proc := g.Kernel.Spawn("app")
	region, err := proc.Mmap(8*mem.PageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 8; p++ {
		if err := proc.WriteU64(region.Start.Add(uint64(p)*mem.PageSize), uint64(p)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, _, err := Migrate(g.VM, Options{}, nil); !errors.Is(err, ErrSendFailed) {
			t.Fatalf("run %d: %v, want ErrSendFailed", i, err)
		}
	}
	// A leaked round span would stack the second run's paths under the
	// first run's dead round0: max depth migrate -> round -> send is 3.
	for _, ps := range p.Tree().Paths() {
		if len(ps.Path) > 3 {
			t.Errorf("leaked span: path depth %d: %v", len(ps.Path), ps.Path)
		}
		for _, f := range ps.Path[1:] {
			if f.Op == "migrate" {
				t.Errorf("nested migrate span - a failed run leaked its stack: %v", ps.Path)
			}
		}
	}
	_ = region
}
