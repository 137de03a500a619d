package wss

import (
	"errors"
	"repro/internal/faults"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
)

func boot(t *testing.T, pages int) (*machine.Guest, mem.GVA) {
	t.Helper()
	m, err := machine.New(machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g := m.Guest(0)
	proc := g.Kernel.Spawn("app")
	region, err := proc.Mmap(uint64(pages)*mem.PageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	// Populate so frames exist and A/D flags have history.
	for p := 0; p < pages; p++ {
		if err := proc.WriteU64(region.Start.Add(uint64(p)*mem.PageSize), 1); err != nil {
			t.Fatal(err)
		}
	}
	return g, region.Start
}

// TestWSSCountsReadsAndWrites: the estimate covers read-only pages, which
// pure dirty logging would miss - the whole point of PML-R.
func TestWSSCountsReadsAndWrites(t *testing.T) {
	g, base := boot(t, 128)
	proc, _ := g.Kernel.Process(1)
	est := New(g.VM)

	est.BeginInterval()
	// Touch 40 pages: 10 by writing, 30 by reading only.
	for p := 0; p < 10; p++ {
		if err := proc.WriteU64(base.Add(uint64(p)*mem.PageSize), 2); err != nil {
			t.Fatal(err)
		}
	}
	for p := 10; p < 40; p++ {
		if _, err := proc.ReadU64(base.Add(uint64(p) * mem.PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := est.EndInterval()
	if err != nil {
		t.Fatal(err)
	}
	if s.Pages != 40 {
		t.Errorf("WSS = %d pages, want 40 (reads must count)", s.Pages)
	}
	if s.Bytes != 40*mem.PageSize {
		t.Errorf("Bytes = %d", s.Bytes)
	}
}

// TestWSSIntervalsIndependent: each interval re-arms from a clean slate.
func TestWSSIntervalsIndependent(t *testing.T) {
	g, base := boot(t, 64)
	proc, _ := g.Kernel.Process(1)
	est := New(g.VM)

	touch := func(n int) {
		for p := 0; p < n; p++ {
			if _, err := proc.ReadU64(base.Add(uint64(p) * mem.PageSize)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, want := range []int{50, 8, 20} {
		est.BeginInterval()
		touch(want)
		s, err := est.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		if s.Pages != want {
			t.Errorf("interval %d: WSS = %d, want %d", i+1, s.Pages, want)
		}
	}
	if est.Peak() != 50 {
		t.Errorf("Peak = %d, want 50", est.Peak())
	}
	if len(est.Samples()) != 3 {
		t.Errorf("Samples = %d", len(est.Samples()))
	}
}

// TestWSSRepeatedTouchesCountOnce: touching one page many times is one
// working-set page.
func TestWSSRepeatedTouchesCountOnce(t *testing.T) {
	g, base := boot(t, 8)
	proc, _ := g.Kernel.Process(1)
	est := New(g.VM)
	est.BeginInterval()
	for i := 0; i < 100; i++ {
		if _, err := proc.ReadU64(base); err != nil {
			t.Fatal(err)
		}
		if err := proc.WriteU64(base.Add(8), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := est.EndInterval()
	if err != nil {
		t.Fatal(err)
	}
	if s.Pages != 1 {
		t.Errorf("WSS = %d, want 1", s.Pages)
	}
}

func TestWSSEndWithoutBegin(t *testing.T) {
	g, _ := boot(t, 4)
	est := New(g.VM)
	if _, err := est.EndInterval(); !errors.Is(err, ErrNotArmed) {
		t.Errorf("EndInterval unarmed: %v", err)
	}
}

// TestWSSDoesNotDisturbEPML: sampling the VM's WSS while a guest EPML
// session tracks a process leaves the guest's dirty view intact.
func TestWSSDoesNotDisturbEPML(t *testing.T) {
	g, base := boot(t, 32)
	proc, _ := g.Kernel.Process(1)
	tech, err := g.NewTechnique(machine.RealTechniques()[3], proc) // EPML
	if err != nil {
		t.Fatal(err)
	}
	if err := tech.Init(); err != nil {
		t.Fatal(err)
	}
	est := New(g.VM)
	est.BeginInterval()
	for p := 0; p < 16; p++ {
		if err := proc.WriteU64(base.Add(uint64(p)*mem.PageSize), 3); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := est.EndInterval(); err != nil {
		t.Fatal(err)
	}
	dirty, err := tech.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(dirty) != 16 {
		t.Errorf("EPML saw %d dirty pages during WSS sampling, want 16", len(dirty))
	}
}

// TestWSSEndIntervalErrorDisarms: a failed collect must not leak PML-R
// arming, hypervisor dirty logging, or the estimator's armed flag.
func TestWSSEndIntervalErrorDisarms(t *testing.T) {
	g, base := boot(t, 16)
	proc, _ := g.Kernel.Process(1)
	est := New(g.VM)

	est.BeginInterval()
	for p := 0; p < 8; p++ {
		if _, err := proc.ReadU64(base.Add(uint64(p) * mem.PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	var spec faults.Spec
	spec.SetRate(faults.CollectFail, 1)
	g.VM.VCPU.Inj = faults.New(spec, 1)
	if _, err := est.EndInterval(); !errors.Is(err, faults.ErrTransient) {
		t.Fatalf("EndInterval under injected collect failure: %v", err)
	}
	g.VM.VCPU.Inj = nil

	if g.VM.VCPU.PMLLogReads {
		t.Error("PMLLogReads still armed after failed EndInterval")
	}
	if g.VM.EnabledByHyp() {
		t.Error("hypervisor dirty logging still enabled after failed EndInterval")
	}
	if _, err := est.EndInterval(); !errors.Is(err, ErrNotArmed) {
		t.Errorf("estimator still armed after failed EndInterval: %v", err)
	}
	// A fresh interval still works and sees only its own touches.
	est.BeginInterval()
	if _, err := proc.ReadU64(base); err != nil {
		t.Fatal(err)
	}
	s, err := est.EndInterval()
	if err != nil {
		t.Fatal(err)
	}
	if s.Pages != 1 {
		t.Errorf("post-recovery interval WSS = %d, want 1", s.Pages)
	}
	if len(est.Samples()) != 1 {
		t.Errorf("failed interval recorded a sample: %d", len(est.Samples()))
	}
}
