package cpu

import (
	"errors"
	"testing"

	"repro/internal/mem"
	"repro/internal/pgtable"
	"repro/internal/vmcs"
)

// failEPTExits wraps the harness exit handler to fail EPT violations, so a
// walk's second level can be made to error deterministically.
type failEPTExits struct {
	inner ExitHandler
	fail  bool
}

func (f *failEPTExits) HandleExit(v *VCPU, e Exit) (uint64, error) {
	if f.fail && e.Reason == ExitEPTViolation {
		return 0, errors.New("EPT mapping refused")
	}
	return f.inner.HandleExit(v, e)
}

// TestReadFaultLeavesAccessedClean is the regression test for the
// premature accessed-bit commit: when the EPT half of a read walk fails,
// the guest PTE must be left untouched, exactly as hardware only sets A/D
// after the full two-level walk succeeds.
func TestReadFaultLeavesAccessedClean(t *testing.T) {
	h := newHarness(t)
	h.mapPage(t, 0x4000)
	fe := &failEPTExits{inner: h, fail: true}
	h.vcpu.Exits = fe

	if _, err := h.vcpu.ReadU64(0x4000); err == nil {
		t.Fatal("read succeeded with failing EPT handler")
	}
	pte, ok := h.pt.Lookup(0x4000)
	if !ok {
		t.Fatal("page vanished")
	}
	if pte.Accessed() {
		t.Error("accessed flag committed although the EPT walk failed")
	}
	// Once the handler works, the same read succeeds and commits A.
	fe.fail = false
	if _, err := h.vcpu.ReadU64(0x4000); err != nil {
		t.Fatal(err)
	}
	if pte, _ := h.pt.Lookup(0x4000); !pte.Accessed() {
		t.Error("accessed flag missing after successful walk")
	}
}

// TestWriteFaultLeavesDirtyClean is the write-side counterpart: a failed
// EPT walk must not leave premature accessed/dirty bits, or the dirty 0->1
// transition (and its PML log) would be lost on the retry.
func TestWriteFaultLeavesDirtyClean(t *testing.T) {
	h := newHarness(t)
	h.vcpu.VMCS.SetPMLEnabled(true)
	h.mapPage(t, 0x4000)
	fe := &failEPTExits{inner: h, fail: true}
	h.vcpu.Exits = fe

	if err := h.vcpu.WriteU64(0x4000, 1); err == nil {
		t.Fatal("write succeeded with failing EPT handler")
	}
	pte, _ := h.pt.Lookup(0x4000)
	if pte.Dirty() || pte.Accessed() {
		t.Errorf("A/D flags committed although the EPT walk failed (pte=%#x)", uint64(pte))
	}
	fe.fail = false
	if err := h.vcpu.WriteU64(0x4000, 2); err != nil {
		t.Fatal(err)
	}
	// The retried write is the 0->1 dirty transition and must be logged.
	if n := h.vcpu.Counters.Get(CtrPMLLogs); n != 1 {
		t.Errorf("PML logs = %d, want 1 (dirty transition lost across failed walk)", n)
	}
}

// TestSelfRemovingWriteHook pins the snapshot-dispatch fix: a hook that
// removes itself (or a neighbour) mid-dispatch must not skip other hooks
// or fire anything twice.
func TestSelfRemovingWriteHook(t *testing.T) {
	h := newHarness(t)
	h.mapPage(t, 0x4000)
	var aFired, bFired, cFired int
	var idA int
	idA = h.vcpu.AddWriteHook(func(mem.GVA) {
		aFired++
		h.vcpu.RemoveWriteHook(idA) // self-removal during dispatch
	})
	h.vcpu.AddWriteHook(func(mem.GVA) { bFired++ })
	h.vcpu.AddWriteHook(func(mem.GVA) { cFired++ })

	if err := h.vcpu.WriteU64(0x4000, 1); err != nil {
		t.Fatal(err)
	}
	if aFired != 1 || bFired != 1 || cFired != 1 {
		t.Fatalf("first write fired a=%d b=%d c=%d, want 1/1/1", aFired, bFired, cFired)
	}
	if err := h.vcpu.WriteU64(0x4000, 2); err != nil {
		t.Fatal(err)
	}
	if aFired != 1 {
		t.Errorf("removed hook fired again (a=%d)", aFired)
	}
	if bFired != 2 || cFired != 2 {
		t.Errorf("surviving hooks fired b=%d c=%d, want 2/2", bFired, cFired)
	}
}

// TestTLBInvalidationOnUnmap proves a cached translation dies with its
// mapping: after Unmap, the next write must re-fault instead of silently
// hitting the stale frame.
func TestTLBInvalidationOnUnmap(t *testing.T) {
	h := newHarness(t)
	h.faultMap = true
	h.mapPage(t, 0x4000)
	// Two writes: the second is a pure TLB hit.
	if err := h.vcpu.WriteU64(0x4000, 0xAA); err != nil {
		t.Fatal(err)
	}
	if err := h.vcpu.WriteU64(0x4000, 0xAB); err != nil {
		t.Fatal(err)
	}
	oldGPA, err := h.pt.Translate(0x4000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.pt.Unmap(0x4000); err != nil {
		t.Fatal(err)
	}
	faultsBefore := h.vcpu.Counters.Get(CtrGuestFaults)
	if err := h.vcpu.WriteU64(0x4000, 0xBB); err != nil {
		t.Fatal(err)
	}
	if n := h.vcpu.Counters.Get(CtrGuestFaults); n != faultsBefore+1 {
		t.Errorf("write after unmap took %d faults, want 1 (stale TLB hit?)", n-faultsBefore)
	}
	newGPA, err := h.pt.Translate(0x4000)
	if err != nil {
		t.Fatal(err)
	}
	if newGPA == oldGPA {
		t.Fatal("fault handler reused the old GPA; test cannot distinguish frames")
	}
	// The new frame holds the new value; the old frame still holds the old
	// one - the post-unmap write must not have leaked into it.
	if v, err := h.vcpu.ReadU64(0x4000); err != nil || v != 0xBB {
		t.Errorf("read via new mapping = %#x, %v; want 0xBB", v, err)
	}
	oldHPA, err := h.vcpu.EPT.Translate(oldGPA)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := h.phys.ReadU64(oldHPA); err != nil || v != 0xAB {
		t.Errorf("old frame word = %#x, %v; want 0xAB (stale TLB wrote through)", v, err)
	}
}

// TestTLBInvalidationOnEPTClearDirty proves the EPT generation tag: after
// ClearDirtyPage re-arms logging, the next write to a TLB-cached page must
// take the slow path and produce a fresh PML log.
func TestTLBInvalidationOnEPTClearDirty(t *testing.T) {
	h := newHarness(t)
	h.vcpu.VMCS.SetPMLEnabled(true)
	h.mapPage(t, 0x4000)
	for i := 0; i < 3; i++ { // fill the TLB with a hot, dirty translation
		if err := h.vcpu.WriteU64(0x4000, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := h.vcpu.Counters.Get(CtrPMLLogs); n != 1 {
		t.Fatalf("PML logs = %d before re-arm, want 1", n)
	}
	gpa, err := h.pt.Translate(0x4000)
	if err != nil {
		t.Fatal(err)
	}
	h.vcpu.EPT.ClearDirtyPage(gpa.PageFloor())
	if err := h.vcpu.WriteU64(0x4000, 99); err != nil {
		t.Fatal(err)
	}
	if n := h.vcpu.Counters.Get(CtrPMLLogs); n != 2 {
		t.Errorf("PML logs = %d after ClearDirtyPage, want 2 (stale TLB swallowed the log)", n)
	}
}

// TestTLBInvalidationOnClearFlags proves guest-PTE flag clears are seen:
// clearing the dirty bit (a soft-dirty style re-arm) makes the next write
// re-run the walk and re-commit the flag.
func TestTLBInvalidationOnClearFlags(t *testing.T) {
	h := newHarness(t)
	h.mapPage(t, 0x4000)
	for i := 0; i < 2; i++ {
		if err := h.vcpu.WriteU64(0x4000, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.pt.ClearFlags(0x4000, pgtable.FlagDirty); err != nil {
		t.Fatal(err)
	}
	if err := h.vcpu.WriteU64(0x4000, 7); err != nil {
		t.Fatal(err)
	}
	pte, _ := h.pt.Lookup(0x4000)
	if !pte.Dirty() {
		t.Error("dirty flag not re-committed: the cleared PTE was served from the TLB")
	}
	if v, err := h.vcpu.ReadU64(0x4000); err != nil || v != 7 {
		t.Errorf("read back = %#x, %v; want 7", v, err)
	}
}

// TestTLBInvalidationOnAddressSpaceSwitch proves the CR3 epoch: the same
// GVA in two address spaces must reach two different frames, with no
// leakage from the previously cached translation.
func TestTLBInvalidationOnAddressSpaceSwitch(t *testing.T) {
	h := newHarness(t)
	pt2 := pgtable.New()
	if err := pt2.Map(0x4000, h.nextGPA, pgtable.FlagWritable|pgtable.FlagUser); err != nil {
		t.Fatal(err)
	}
	gpa2 := h.nextGPA
	h.nextGPA += mem.PageSize
	h.mapPage(t, 0x4000) // pt1's mapping, different GPA

	if err := h.vcpu.WriteU64(0x4000, 0x11); err != nil {
		t.Fatal(err)
	}
	if err := h.vcpu.WriteU64(0x4000, 0x12); err != nil { // TLB hot
		t.Fatal(err)
	}
	h.vcpu.SetAddressSpace(pt2)
	if err := h.vcpu.WriteU64(0x4000, 0x22); err != nil {
		t.Fatal(err)
	}
	if v, err := h.vcpu.ReadU64(0x4000); err != nil || v != 0x22 {
		t.Errorf("read in pt2 = %#x, %v; want 0x22", v, err)
	}
	hpa2, err := h.vcpu.EPT.Translate(gpa2)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := h.phys.ReadU64(hpa2); err != nil || v != 0x22 {
		t.Errorf("pt2 frame = %#x, %v; want 0x22 (write leaked into pt1's frame)", v, err)
	}
	// Switch back: pt1's value must be intact.
	h.vcpu.SetAddressSpace(h.pt)
	if v, err := h.vcpu.ReadU64(0x4000); err != nil || v != 0x12 {
		t.Errorf("read back in pt1 = %#x, %v; want 0x12", v, err)
	}
}

// TestArmCacheInvalidationOnGuestVMWrite proves the arming state tracks
// guest-mode vmwrites through the shadow VMCS: disabling logging stops
// EPML logs immediately, re-enabling resumes them.
func TestArmCacheInvalidationOnGuestVMWrite(t *testing.T) {
	h := newHarness(t)
	shadow := vmcs.New()
	h.vcpu.VMCS.LinkShadow(shadow,
		vmcs.FieldGuestPMLAddress, vmcs.FieldGuestPMLIndex, vmcs.FieldGuestPMLEnable)
	h.vcpu.VMCS.SetEPMLEnabled(true)
	h.vcpu.EPMLVector = 0xEC
	if err := h.vcpu.GuestVMWrite(vmcs.FieldGuestPMLAddress, 0x2000); err != nil {
		t.Fatal(err)
	}
	if err := h.vcpu.GuestVMWrite(vmcs.FieldGuestPMLIndex, vmcs.PMLResetIndex); err != nil {
		t.Fatal(err)
	}
	if err := h.vcpu.GuestVMWrite(vmcs.FieldGuestPMLEnable, 1); err != nil {
		t.Fatal(err)
	}

	h.mapPage(t, 0x4000)
	h.mapPage(t, 0x5000)
	h.mapPage(t, 0x6000)
	if err := h.vcpu.WriteU64(0x4000, 1); err != nil {
		t.Fatal(err)
	}
	if n := h.vcpu.Counters.Get(CtrEPMLLogs); n != 1 {
		t.Fatalf("EPML logs = %d with logging armed, want 1", n)
	}
	// Guest disarms logging with an exit-free vmwrite; the next write must
	// see it.
	if err := h.vcpu.GuestVMWrite(vmcs.FieldGuestPMLEnable, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.vcpu.WriteU64(0x5000, 1); err != nil {
		t.Fatal(err)
	}
	if n := h.vcpu.Counters.Get(CtrEPMLLogs); n != 1 {
		t.Errorf("EPML logs = %d after disarm, want 1 (stale armed state)", n)
	}
	if err := h.vcpu.GuestVMWrite(vmcs.FieldGuestPMLEnable, 1); err != nil {
		t.Fatal(err)
	}
	if err := h.vcpu.WriteU64(0x6000, 1); err != nil {
		t.Fatal(err)
	}
	if n := h.vcpu.Counters.Get(CtrEPMLLogs); n != 2 {
		t.Errorf("EPML logs = %d after re-arm, want 2", n)
	}
}

// TestTLBInvalidationOnCapture proves a capture needs no TLB invalidation:
// CaptureSnapshot freezes the chunk holding the frame a cached walk
// reaches, a write that hits the TLB resolves its frame again (copying the
// chunk), and a fork taken afterwards still reads the captured word.
func TestTLBInvalidationOnCapture(t *testing.T) {
	h := newHarness(t)
	h.mapPage(t, 0x4000)
	for _, v := range []uint64{1, 2} { // the second write is a TLB hit
		if err := h.vcpu.WriteU64(0x4000, v); err != nil {
			t.Fatal(err)
		}
	}
	snap := h.phys.CaptureSnapshot()
	if err := h.vcpu.WriteU64(0x4000, 3); err != nil {
		t.Fatal(err)
	}
	gpa, err := h.pt.Translate(0x4000)
	if err != nil {
		t.Fatal(err)
	}
	hpa, err := h.vcpu.EPT.Translate(gpa)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := snap.NewPhysMem().ReadU64(hpa); err != nil || v != 2 {
		t.Errorf("fork reads %d, %v; want the captured 2 (a TLB hit wrote into the snapshot)", v, err)
	}
	if v, err := h.vcpu.ReadU64(0x4000); err != nil || v != 3 {
		t.Errorf("source reads %d, %v; want its own 3", v, err)
	}
}
