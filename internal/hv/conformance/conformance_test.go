package conformance

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/guestos"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/migration"
	"repro/internal/sim"
	"repro/internal/wss"
)

// forEachBackend runs scenario once per backend, as a subtest named after
// it. Every backend must pass every scenario.
func forEachBackend(t *testing.T, scenario func(t *testing.T, backend string)) {
	t.Helper()
	names := machine.Backends()
	if len(names) == 0 {
		t.Fatal("no backends")
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) { scenario(t, name) })
	}
}

// boot builds a one-guest machine on the named backend with pages of
// populated, eagerly mapped memory in a fresh process.
func boot(t *testing.T, backend string, pages int) (*machine.Guest, *guestos.Process, mem.GVA) {
	t.Helper()
	m, err := machine.New(machine.Config{Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	g := m.Guest(0)
	proc := g.Kernel.Spawn("app")
	region, err := proc.Mmap(uint64(pages)*mem.PageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(7)
	for p := 0; p < pages; p++ {
		if err := proc.WriteU64(region.Start.Add(uint64(p)*mem.PageSize), rng.Uint64()); err != nil {
			t.Fatal(err)
		}
	}
	return g, proc, region.Start
}

// gpaOf translates a page's GVA through the process page table.
func gpaOf(t *testing.T, proc *guestos.Process, gva mem.GVA) mem.GPA {
	t.Helper()
	gpa, err := proc.PT.Translate(gva)
	if err != nil {
		t.Fatal(err)
	}
	return gpa
}

// TestDirtyLogExactSets pins the core DirtyLog contract: CollectDirty
// returns exactly the pages written since the previous collection, in
// ascending GPA order, and re-arms them - a rewrite after a collect is
// logged again, an untouched interval collects empty.
func TestDirtyLogExactSets(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		g, proc, base := boot(t, backend, 64)
		dl := g.VM
		dl.StartDirtyLogging()
		defer dl.StopDirtyLogging()

		want := []mem.GPA{}
		for _, p := range []uint64{3, 9, 27} {
			gva := base.Add(p * mem.PageSize)
			if err := proc.WriteU64(gva, p); err != nil {
				t.Fatal(err)
			}
			want = append(want, gpaOf(t, proc, gva))
		}
		slices.Sort(want)

		got, err := dl.CollectDirty()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("CollectDirty = %v, want %v", got, want)
		}
		if !slices.IsSorted(got) {
			t.Errorf("CollectDirty not sorted: %v", got)
		}

		// Untouched interval: nothing to report.
		if got, err = dl.CollectDirty(); err != nil {
			t.Fatal(err)
		} else if len(got) != 0 {
			t.Errorf("empty interval collected %v", got)
		}

		// Re-arm: a page collected once must be re-logged when rewritten.
		gva := base.Add(9 * mem.PageSize)
		if err := proc.WriteU64(gva, 99); err != nil {
			t.Fatal(err)
		}
		if got, err = dl.CollectDirty(); err != nil {
			t.Fatal(err)
		} else if !slices.Equal(got, []mem.GPA{gpaOf(t, proc, gva)}) {
			t.Errorf("re-armed collect = %v, want the rewritten page only", got)
		}

		// Two offsets of one page - a read at +0, then a write at +8 - are
		// one page, reported once at its page-aligned GPA.
		gva = base.Add(27 * mem.PageSize)
		if _, err := proc.ReadU64(gva); err != nil {
			t.Fatal(err)
		}
		if err := proc.WriteU64(gva.Add(8), 27); err != nil {
			t.Fatal(err)
		}
		if got, err = dl.CollectDirty(); err != nil {
			t.Fatal(err)
		} else if !slices.Equal(got, []mem.GPA{gpaOf(t, proc, gva)}) {
			t.Errorf("one page touched at two offsets collected %v, want its page GPA once", got)
		}
	})
}

// TestDirtyLogStartHygiene pins the state-hygiene bugfix sweep's dirty-log
// contract: StopDirtyLogging discards the uncollected log, and a fresh
// StartDirtyLogging begins with a clean slate - pages dirtied before or
// between sessions never leak into the next session's first collect.
func TestDirtyLogStartHygiene(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		g, proc, base := boot(t, backend, 16)
		dl := g.VM
		write := func(page uint64) mem.GVA {
			gva := base.Add(page * mem.PageSize)
			if err := proc.WriteU64(gva, page); err != nil {
				t.Fatal(err)
			}
			return gva
		}

		dl.StartDirtyLogging()
		write(1) // dirtied, never collected
		dl.StopDirtyLogging()
		write(2) // dirtied while logging is off

		dl.StartDirtyLogging()
		defer dl.StopDirtyLogging()
		gva := write(3)
		got, err := dl.CollectDirty()
		if err != nil {
			t.Fatal(err)
		}
		if want := []mem.GPA{gpaOf(t, proc, gva)}; !slices.Equal(got, want) {
			t.Errorf("first collect of a fresh session = %v, want %v (stale state leaked)", got, want)
		}
	})
}

// TestAccessLogIntervals pins the AccessLog/wss contract: an interval's
// sample counts read-only pages as well as written ones, and intervals are
// independent - the second interval sees only its own touches.
func TestAccessLogIntervals(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		g, proc, base := boot(t, backend, 128)
		est := wss.New(g.VM)

		est.BeginInterval()
		for p := uint64(0); p < 10; p++ {
			if err := proc.WriteU64(base.Add(p*mem.PageSize), p); err != nil {
				t.Fatal(err)
			}
		}
		for p := uint64(10); p < 40; p++ {
			if _, err := proc.ReadU64(base.Add(p * mem.PageSize)); err != nil {
				t.Fatal(err)
			}
		}
		s, err := est.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		if s.Pages != 40 {
			t.Errorf("interval 1: WSS = %d pages, want 40 (reads must count)", s.Pages)
		}

		est.BeginInterval()
		for p := uint64(50); p < 55; p++ {
			if _, err := proc.ReadU64(base.Add(p * mem.PageSize)); err != nil {
				t.Fatal(err)
			}
		}
		if s, err = est.EndInterval(); err != nil {
			t.Fatal(err)
		} else if s.Pages != 5 {
			t.Errorf("interval 2: WSS = %d pages, want 5 (intervals must be independent)", s.Pages)
		}

		// One page touched at two offsets - a read at +0, then a write at
		// +8 - is one page of working set.
		est.BeginInterval()
		gva := base.Add(60 * mem.PageSize)
		if _, err := proc.ReadU64(gva); err != nil {
			t.Fatal(err)
		}
		if err := proc.WriteU64(gva.Add(8), 60); err != nil {
			t.Fatal(err)
		}
		if s, err = est.EndInterval(); err != nil {
			t.Fatal(err)
		} else if s.Pages != 1 {
			t.Errorf("interval 3: WSS = %d pages, want 1 (one page at two offsets)", s.Pages)
		}
	})
}

// TestMigrationConverges runs a full pre-copy live migration on each
// backend, with a write racing the copy rounds, and checks the final image
// against live guest memory page by page.
func TestMigrationConverges(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		g, proc, base := boot(t, backend, 96)
		image, stats, err := migration.Migrate(g.VM, migration.Options{}, func(round int) error {
			return proc.WriteU64(base, 0xA5A5_0000+uint64(round))
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Rounds < 1 || stats.UniquePages == 0 {
			t.Fatalf("implausible stats %+v", stats)
		}
		for gpa, want := range image {
			got := make([]byte, mem.PageSize)
			if err := g.VM.VCPU.KernelReadGPA(gpa, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("migrated page %v differs from live memory", gpa)
			}
		}
	})
}

// TestForkIsolation pins the snapshot/fork contract per backend: a fork
// reads the captured bytes, its writes never reach the parent, and dirty
// logging works in the fork from a clean slate.
func TestForkIsolation(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		m, err := machine.New(machine.Config{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		g := m.Guest(0)
		proc := g.Kernel.Spawn("app")
		region, err := proc.Mmap(8*mem.PageSize, true)
		if err != nil {
			t.Fatal(err)
		}
		base := region.Start
		for p := uint64(0); p < 8; p++ {
			if err := proc.WriteU64(base.Add(p*mem.PageSize), 0x1000+p); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := m.CaptureSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		fm, err := snap.Fork(machine.Config{})
		if err != nil {
			t.Fatal(err)
		}
		fg := fm.Guest(0)
		fproc, ok := fg.Kernel.Process(proc.Pid)
		if !ok {
			t.Fatalf("fork lost pid %d", proc.Pid)
		}

		// The fork reads the captured bytes.
		for p := uint64(0); p < 8; p++ {
			v, err := fproc.ReadU64(base.Add(p * mem.PageSize))
			if err != nil {
				t.Fatal(err)
			}
			if v != 0x1000+p {
				t.Errorf("fork page %d reads %#x, want %#x", p, v, 0x1000+p)
			}
		}

		// Fork writes diverge privately: the parent never sees them.
		if err := fproc.WriteU64(base, 0xDEAD); err != nil {
			t.Fatal(err)
		}
		if v, err := proc.ReadU64(base); err != nil {
			t.Fatal(err)
		} else if v != 0x1000 {
			t.Errorf("parent page 0 reads %#x after fork write, want %#x", v, 0x1000)
		}

		// Dirty logging in the fork starts from a clean slate.
		dl := fg.VM
		dl.StartDirtyLogging()
		defer dl.StopDirtyLogging()
		gva := base.Add(5 * mem.PageSize)
		if err := fproc.WriteU64(gva, 0xBEEF); err != nil {
			t.Fatal(err)
		}
		got, err := dl.CollectDirty()
		if err != nil {
			t.Fatal(err)
		}
		if want := []mem.GPA{gpaOf(t, fproc, gva)}; !slices.Equal(got, want) {
			t.Errorf("fork CollectDirty = %v, want %v", got, want)
		}
	})
}
