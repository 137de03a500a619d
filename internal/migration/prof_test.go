package migration

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/prof"
	"repro/internal/sim"
)

// setupProfiled is setupPlain with a profiler attached to the machine.
func setupProfiled(t *testing.T, pages int) (*prof.Profiler, *machine.Guest, mem.GVA) {
	t.Helper()
	p := prof.New()
	m, err := machine.New(machine.Config{Profiler: p})
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
	for i := 0; i < pages; i++ {
		if err := proc.WriteU64(region.Start.Add(uint64(i)*mem.PageSize), rng.Uint64()); err != nil {
			t.Fatal(err)
		}
	}
	return p, g, region.Start
}

// TestMigrationStopAndCopySpanEqualsDowntime is the profiler's exactness
// cross-check against the migration stats plane: the stop_and_copy span
// opens at the same virtual instant as the downtime stopwatch and closes
// at the instant it is read, so its inclusive time must equal
// Stats.Downtime to the nanosecond.
func TestMigrationStopAndCopySpanEqualsDowntime(t *testing.T) {
	p, g, base := setupProfiled(t, 128)
	proc, _ := g.Kernel.Process(1)
	_, stats, err := Migrate(g.VM, Options{MaxRounds: 3}, func(round int) error {
		return proc.WriteU64(base, uint64(round))
	})
	if err != nil {
		t.Fatal(err)
	}
	var sac *prof.PathStat
	for _, ps := range p.Tree().Paths() {
		ps := ps
		if len(ps.Path) == 2 &&
			ps.Path[0] == (prof.Frame{Sub: prof.SubMigration, Op: "migrate"}) &&
			ps.Path[1].Op == "stop_and_copy" {
			sac = &ps
		}
	}
	if sac == nil {
		t.Fatal("no migration/migrate;migration/stop_and_copy path in the profile")
	}
	if want := stats.Downtime.Nanoseconds(); sac.Incl != want {
		t.Errorf("stop_and_copy span = %dns, want Stats.Downtime %dns", sac.Incl, want)
	}
	if sac.Count != 1 {
		t.Errorf("stop_and_copy count = %d, want 1", sac.Count)
	}
}

// TestMigrationCriticalPath asserts CriticalPath names a dominant path for
// the migration rounds, including the full-copy round 0.
func TestMigrationCriticalPath(t *testing.T) {
	p, g, _ := setupProfiled(t, 128)
	_, stats, err := Migrate(g.VM, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rounds []prof.RoundPath
	for _, r := range p.CriticalPath() {
		if r.Sub == prof.SubMigration {
			rounds = append(rounds, r)
		}
	}
	if len(rounds) == 0 {
		t.Fatal("CriticalPath has no migration rounds")
	}
	if rounds[0].Round != 0 {
		t.Errorf("first migration round is %d, want the full-copy round 0", rounds[0].Round)
	}
	if rounds[0].Total <= 0 {
		t.Errorf("round 0 total = %d, want > 0 (it copied %d pages)",
			rounds[0].Total, stats.PerRoundPages[0])
	}
	for i, r := range rounds {
		if r.Round != i {
			t.Errorf("migration rounds out of order: position %d holds round %d", i, r.Round)
		}
		if r.Dominant() == "" {
			t.Errorf("round %d has no dominant path", r.Round)
		}
	}
}
