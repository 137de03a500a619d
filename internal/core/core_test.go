package core

import (
	"errors"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/guestos"
	"repro/internal/hypervisor"
	"repro/internal/mem"
)

// stack boots hypervisor + kernel and loads an OoH module in the given mode.
func stack(t *testing.T, mode Mode) (*guestos.Kernel, *hypervisor.VM, *Lib) {
	t.Helper()
	h := hypervisor.New(mem.NewPhysMem(0), costmodel.Default())
	vm, err := h.CreateVM()
	if err != nil {
		t.Fatal(err)
	}
	k := guestos.NewKernel(vm.VCPU, costmodel.Default())
	return k, vm, NewLib(NewModule(k, vm, mode))
}

func TestModes(t *testing.T) {
	if ModeSPML.String() != "SPML" || ModeEPML.String() != "EPML" {
		t.Error("mode strings wrong")
	}
}

func TestRegisterErrors(t *testing.T) {
	k, _, lib := stack(t, ModeSPML)
	p := k.Spawn("app")
	if _, err := p.Mmap(4*mem.PageSize, true); err != nil {
		t.Fatal(err)
	}
	s, err := lib.Open(p.Pid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lib.Open(p.Pid); !errors.Is(err, ErrAlreadyTracked) {
		t.Errorf("double open: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Errorf("second close: %v", err)
	}
	if _, err := lib.Open(guestos.Pid(999)); err == nil {
		t.Error("open of missing pid succeeded")
	}
	// Fetch on a closed session fails.
	if _, err := s.Fetch(); !errors.Is(err, ErrNotTracked) {
		t.Errorf("fetch on closed session: %v", err)
	}
}

func TestSPMLSessionFetch(t *testing.T) {
	k, _, lib := stack(t, ModeSPML)
	p := k.Spawn("app")
	r, err := p.Mmap(16*mem.PageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	s, err := lib.Open(p.Pid)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i += 2 {
		if err := p.WriteU64(r.Start.Add(uint64(i)*mem.PageSize), 1); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Fetch()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Errorf("fetched %d pages, want 8", len(got))
	}
	// All fetched addresses are GVAs inside the region (reverse mapping
	// worked) and page aligned.
	for _, gva := range got {
		if !r.Contains(gva) || gva.PageOffset() != 0 {
			t.Errorf("bad fetched address %v", gva)
		}
	}
	// The breakdown recorded the reverse-mapping work.
	if s.LastBreakdown.ReverseMap == 0 || s.LastBreakdown.PTWalk == 0 {
		t.Errorf("fetch breakdown empty: %+v", s.LastBreakdown)
	}
	// Nothing new: empty fetch.
	got, err = s.Fetch()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("idle fetch returned %d pages", len(got))
	}
	// A GPA in the ring twice is reported once, but each entry still pays
	// its reverse lookup.
	gva := r.Start.Add(mem.PageSize)
	if err := p.WriteU64(gva, 2); err != nil {
		t.Fatal(err)
	}
	pte, _ := p.PT.Lookup(gva)
	s.s.ring.Push(uint64(pte.GPA()))
	got, err = s.Fetch()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != gva {
		t.Errorf("duplicate GPA fetched as %v, want [%v]", got, gva)
	}
	if want := 2 * k.Model.ReverseMap.PerPage(p.ReservedBytes()); s.LastBreakdown.ReverseMap != want {
		t.Errorf("reverse map charged %v, want two lookups (%v)", s.LastBreakdown.ReverseMap, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSPMLReverseIndexCache(t *testing.T) {
	k, _, lib := stack(t, ModeSPML)
	p := k.Spawn("app")
	r, err := p.Mmap(64*mem.PageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	s, err := lib.Open(p.Pid)
	if err != nil {
		t.Fatal(err)
	}
	s.ReuseReverseIndex = true
	write := func() {
		for i := 0; i < 64; i++ {
			if err := p.WriteU64(r.Start.Add(uint64(i)*mem.PageSize), 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	write()
	if _, err := s.Fetch(); err != nil {
		t.Fatal(err)
	}
	first := s.LastBreakdown
	write()
	got, err := s.Fetch()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 64 {
		t.Fatalf("second fetch returned %d pages, want 64", len(got))
	}
	second := s.LastBreakdown
	if second.PTWalk != 0 {
		t.Errorf("cached fetch still walked the page table (%v)", second.PTWalk)
	}
	if second.ReverseMap*10 > first.ReverseMap {
		t.Errorf("cached reverse map %v not >> cheaper than first %v",
			second.ReverseMap, first.ReverseMap)
	}
}

func TestEPMLSessionFetch(t *testing.T) {
	k, _, lib := stack(t, ModeEPML)
	p := k.Spawn("app")
	r, err := p.Mmap(1024*mem.PageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	s, err := lib.Open(p.Pid)
	if err != nil {
		t.Fatal(err)
	}
	// Cross the 512-entry buffer: the self-IPI drain must preserve all.
	for i := 0; i < 1024; i++ {
		if err := p.WriteU64(r.Start.Add(uint64(i)*mem.PageSize), 1); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Fetch()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1024 {
		t.Errorf("fetched %d pages, want 1024", len(got))
	}
	// Re-arm works: writing the same pages again re-reports them.
	for i := 0; i < 10; i++ {
		if err := p.WriteU64(r.Start.Add(uint64(i)*mem.PageSize), 2); err != nil {
			t.Fatal(err)
		}
	}
	got, err = s.Fetch()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Errorf("re-fetch returned %d pages, want 10", len(got))
	}
	// A GVA in the ring twice is reported and re-armed once: the first
	// copy clears the page's dirty bit, so the PTE filter drops the second.
	if err := p.WriteU64(r.Start, 3); err != nil {
		t.Fatal(err)
	}
	s.s.drainGuestBuffer()
	s.s.ring.Push(uint64(r.Start))
	got, err = s.Fetch()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != r.Start {
		t.Errorf("duplicate GVA fetched as %v, want [%v]", got, r.Start)
	}
	perEntry := k.Model.RBCopy.PerPage(p.ReservedBytes())
	if want := 2*perEntry + k.Model.KernelPageOp; s.LastBreakdown.RingCopy != want {
		t.Errorf("ring copy charged %v, want two entries and one re-arm (%v)", s.LastBreakdown.RingCopy, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// After the last session closes, shadowing is torn down.
	if lib.Module().VM.VMCS.ShadowingEnabled() {
		t.Error("shadowing still enabled after last Unregister")
	}
}

func TestEPMLMultipleSessions(t *testing.T) {
	k, _, lib := stack(t, ModeEPML)
	p1 := k.Spawn("a")
	p2 := k.Spawn("b")
	r1, err := p1.Mmap(8*mem.PageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p2.Mmap(8*mem.PageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := lib.Open(p1.Pid)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := lib.Open(p2.Pid)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave writes from both processes (scheduler notifiers swap the
	// active buffer on each process's operations).
	for i := 0; i < 8; i++ {
		if err := p1.WriteU64(r1.Start.Add(uint64(i)*mem.PageSize), 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := p2.WriteU64(r2.Start.Add(uint64(i)*mem.PageSize), 1); err != nil {
			t.Fatal(err)
		}
	}
	d1, err := s1.Fetch()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := s2.Fetch()
	if err != nil {
		t.Fatal(err)
	}
	for _, gva := range d1 {
		if !r1.Contains(gva) {
			t.Errorf("p1 session leaked address %v", gva)
		}
	}
	for _, gva := range d2 {
		if !r2.Contains(gva) {
			t.Errorf("p2 session leaked address %v", gva)
		}
	}
	if len(d2) != 4 {
		t.Errorf("p2 dirty = %d, want 4", len(d2))
	}
}

// TestSPMLMultipleSessions is the §V property for SPML: with the updated
// per-process ring design, concurrent tracked processes each see only the
// addresses of their own address space - no side channel between tenants.
func TestSPMLMultipleSessions(t *testing.T) {
	k, _, lib := stack(t, ModeSPML)
	p1 := k.Spawn("a")
	p2 := k.Spawn("b")
	r1, err := p1.Mmap(16*mem.PageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p2.Mmap(16*mem.PageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := lib.Open(p1.Pid)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := lib.Open(p2.Pid)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave writes: the scheduler's switch notifiers move the PML
	// window (and the hypervisor's active ring) between the processes.
	for i := 0; i < 16; i++ {
		if err := p1.WriteU64(r1.Start.Add(uint64(i)*mem.PageSize), 1); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := p2.WriteU64(r2.Start.Add(uint64(i)*mem.PageSize), 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	d1, err := s1.Fetch()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := s2.Fetch()
	if err != nil {
		t.Fatal(err)
	}
	if len(d1) != 16 {
		t.Errorf("p1 dirty = %d, want 16", len(d1))
	}
	if len(d2) != 8 {
		t.Errorf("p2 dirty = %d, want 8", len(d2))
	}
	for _, gva := range d1 {
		if !r1.Contains(gva) {
			t.Errorf("p1 session leaked address %v", gva)
		}
	}
	for _, gva := range d2 {
		if !r2.Contains(gva) {
			t.Errorf("p2 session leaked address %v", gva)
		}
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestUnregisterUnknown(t *testing.T) {
	k, _, lib := stack(t, ModeSPML)
	_ = k
	if err := lib.Module().Unregister(guestos.Pid(5)); !errors.Is(err, ErrNotTracked) {
		t.Errorf("unregister unknown: %v", err)
	}
}
