package machine

import (
	"testing"

	"repro/internal/costmodel"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tracking"
)

// newTestMachine boots a 1-VM machine for tests.
func newTestMachine(t *testing.T) *Machine {
	t.Helper()
	m, err := New(Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

// TestCompletenessAllTechniques drives a random page-write pattern under
// every technique and proves the completeness invariant: every page the
// process wrote between Init/Collect boundaries is reported.
func TestCompletenessAllTechniques(t *testing.T) {
	for _, kind := range RealTechniques() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			m := newTestMachine(t)
			g := m.Guest(0)
			proc := g.Kernel.Spawn("writer")
			region, err := proc.Mmap(256*mem.PageSize, true)
			if err != nil {
				t.Fatalf("Mmap: %v", err)
			}

			tech, err := g.NewTechnique(kind, proc)
			if err != nil {
				t.Fatalf("NewTechnique: %v", err)
			}
			ver := tracking.NewVerifier(proc)
			defer ver.Stop()

			if err := tech.Init(); err != nil {
				t.Fatalf("Init: %v", err)
			}
			ver.Reset() // ground truth starts at the same instant as monitoring

			rng := sim.NewRNG(42)
			for round := 0; round < 3; round++ {
				// Write a random subset of pages, some repeatedly.
				for i := 0; i < 400; i++ {
					page := rng.Intn(256)
					gva := region.Start.Add(uint64(page) * mem.PageSize).Add(uint64(rng.Intn(512)) * 8)
					if err := proc.WriteU64(gva, rng.Uint64()); err != nil {
						t.Fatalf("round %d write: %v", round, err)
					}
				}
				got, err := tech.Collect()
				if err != nil {
					t.Fatalf("round %d Collect: %v", round, err)
				}
				if err := ver.MustComplete(got); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				// No false positives outside the address space.
				for _, gva := range got {
					if !region.Contains(gva) {
						t.Fatalf("round %d: reported page %v outside region", round, gva)
					}
				}
				ver.Reset()
			}
			if err := tech.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		})
	}
}

// runMicro measures the virtual time of one monitored pass over `pages`
// pages under the given technique.
func runMicro(t *testing.T, kind costmodel.Technique, pages int) int64 {
	t.Helper()
	m := newTestMachine(t)
	g := m.Guest(0)
	proc := g.Kernel.Spawn("micro")
	region, err := proc.Mmap(uint64(pages)*mem.PageSize, true)
	if err != nil {
		t.Fatalf("Mmap: %v", err)
	}
	tech, err := g.NewTechnique(kind, proc)
	if err != nil {
		t.Fatalf("NewTechnique: %v", err)
	}
	if err := tech.Init(); err != nil {
		t.Fatalf("Init: %v", err)
	}
	start := g.Kernel.Clock.Nanos()
	for p := 0; p < pages; p++ {
		gva := region.Start.Add(uint64(p) * mem.PageSize)
		if err := proc.WriteU64(gva, uint64(p)); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	if _, err := tech.Collect(); err != nil {
		t.Fatalf("Collect: %v", err)
	}
	return g.Kernel.Clock.Nanos() - start
}

// TestTechniqueCostOrderingSmall checks the paper's ordering below the
// ~250 MB crossover (Fig. 4): ufd is the worst technique there, and EPML
// is always the best.
func TestTechniqueCostOrderingSmall(t *testing.T) {
	const pages = 8192 // 32 MiB
	elapsed := make(map[costmodel.Technique]int64)
	for _, kind := range AllTechniques() {
		elapsed[kind] = runMicro(t, kind, pages)
	}
	if !(elapsed[costmodel.Ufd] > elapsed[costmodel.SPML]) {
		t.Errorf("below crossover expected ufd (%d) > SPML (%d)", elapsed[costmodel.Ufd], elapsed[costmodel.SPML])
	}
	if !(elapsed[costmodel.SPML] > elapsed[costmodel.Proc]) {
		t.Errorf("expected SPML (%d) > /proc (%d)", elapsed[costmodel.SPML], elapsed[costmodel.Proc])
	}
	if !(elapsed[costmodel.Proc] > elapsed[costmodel.EPML]) {
		t.Errorf("expected /proc (%d) > EPML (%d)", elapsed[costmodel.Proc], elapsed[costmodel.EPML])
	}
	// EPML must be within a few percent of the oracle (paper: <=0.6%).
	oracle := elapsed[costmodel.Oracle]
	if epml := elapsed[costmodel.EPML]; float64(epml) > 1.10*float64(oracle) {
		t.Errorf("EPML overhead too high: %d vs oracle %d", epml, oracle)
	}
}

// TestTechniqueCostOrderingLarge checks the ordering above the crossover
// (§I): SPML > ufd > /proc > EPML at 512 MiB.
func TestTechniqueCostOrderingLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large working set")
	}
	const pages = 131072 // 512 MiB
	elapsed := make(map[costmodel.Technique]int64)
	for _, kind := range RealTechniques() {
		elapsed[kind] = runMicro(t, kind, pages)
	}
	if !(elapsed[costmodel.SPML] > elapsed[costmodel.Ufd]) {
		t.Errorf("expected SPML (%d) > ufd (%d)", elapsed[costmodel.SPML], elapsed[costmodel.Ufd])
	}
	if !(elapsed[costmodel.Ufd] > elapsed[costmodel.Proc]) {
		t.Errorf("expected ufd (%d) > /proc (%d)", elapsed[costmodel.Ufd], elapsed[costmodel.Proc])
	}
	if !(elapsed[costmodel.Proc] > elapsed[costmodel.EPML]) {
		t.Errorf("expected /proc (%d) > EPML (%d)", elapsed[costmodel.Proc], elapsed[costmodel.EPML])
	}
}

// TestSPMLHypervisorCoexistence exercises §IV-C feature 3: the hypervisor
// using PML for migration while the guest uses SPML, with the
// enabled_by_guest / enabled_by_hyp flags keeping both correct.
func TestSPMLHypervisorCoexistence(t *testing.T) {
	m := newTestMachine(t)
	g := m.Guest(0)
	proc := g.Kernel.Spawn("app")
	region, err := proc.Mmap(64*mem.PageSize, true)
	if err != nil {
		t.Fatalf("Mmap: %v", err)
	}

	tech, err := g.NewTechnique(costmodel.SPML, proc)
	if err != nil {
		t.Fatalf("NewTechnique: %v", err)
	}
	if err := tech.Init(); err != nil {
		t.Fatalf("Init: %v", err)
	}
	g.VM.StartDirtyLogging() // hypervisor-level use starts concurrently

	if !g.VM.EnabledByGuest() || !g.VM.EnabledByHyp() {
		t.Fatalf("coordination flags: guest=%v hyp=%v", g.VM.EnabledByGuest(), g.VM.EnabledByHyp())
	}

	for p := 0; p < 64; p++ {
		if err := proc.WriteU64(region.Start.Add(uint64(p)*mem.PageSize), uint64(p)); err != nil {
			t.Fatalf("write: %v", err)
		}
	}

	guestSet, err := tech.Collect()
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if len(guestSet) != 64 {
		t.Errorf("guest collected %d pages, want 64", len(guestSet))
	}
	migSet, err := g.VM.CollectDirty()
	if err != nil {
		t.Fatalf("CollectDirty: %v", err)
	}
	if len(migSet) < 64 {
		t.Errorf("migration log has %d pages, want >= 64", len(migSet))
	}

	// Stopping the hypervisor's use must not disable PML while the guest
	// still uses it.
	g.VM.StopDirtyLogging()
	if !g.VM.VMCS.PMLEnabled() {
		t.Error("PML disabled while enabled_by_guest is still set")
	}
	if err := tech.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if g.VM.VMCS.PMLEnabled() {
		t.Error("PML still enabled after both levels released it")
	}
}

// TestEPMLNoHypercallsOnCriticalPath verifies §IV-D: after the single setup
// hypercall, EPML's monitoring and collection perform no hypercalls at all.
func TestEPMLNoHypercallsOnCriticalPath(t *testing.T) {
	m := newTestMachine(t)
	g := m.Guest(0)
	proc := g.Kernel.Spawn("app")
	region, err := proc.Mmap(2048*mem.PageSize, true)
	if err != nil {
		t.Fatalf("Mmap: %v", err)
	}
	tech, err := g.NewTechnique(costmodel.EPML, proc)
	if err != nil {
		t.Fatalf("NewTechnique: %v", err)
	}
	if err := tech.Init(); err != nil {
		t.Fatalf("Init: %v", err)
	}

	before := g.Kernel.VCPU.Counters.Get("hypercalls")
	// Dirty 2048 pages: four guest-buffer-full events (512 entries each),
	// all handled by self-IPI, no vmexit.
	for p := 0; p < 2048; p++ {
		if err := proc.WriteU64(region.Start.Add(uint64(p)*mem.PageSize), 1); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	got, err := tech.Collect()
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	after := g.Kernel.VCPU.Counters.Get("hypercalls")

	if after != before {
		t.Errorf("EPML made %d hypercalls during monitoring+collection", after-before)
	}
	if len(got) != 2048 {
		t.Errorf("collected %d pages, want 2048", len(got))
	}
	// 2048 dirtied pages against a 512-entry buffer must overflow at least
	// once; schedule-out drains legitimately absorb some of the rest.
	if irqs := g.Kernel.VCPU.Counters.Get("epml_full_irqs"); irqs < 1 {
		t.Errorf("expected >=1 buffer-full self-IPI, got %d", irqs)
	}
}
