package cpu

import (
	"errors"
	"testing"

	"repro/internal/ept"
	"repro/internal/mem"
	"repro/internal/pgtable"
	"repro/internal/sim"
	"repro/internal/vmcs"
)

// mustRead/mustWrite are test-side replacements for the removed panicking
// VMCS accessors.
func mustRead(t *testing.T, v *vmcs.VMCS, f vmcs.Field) uint64 {
	t.Helper()
	val, err := v.Read(f)
	if err != nil {
		t.Fatalf("Read(%v): %v", f, err)
	}
	return val
}

func mustWrite(t *testing.T, v *vmcs.VMCS, f vmcs.Field, val uint64) {
	t.Helper()
	if err := v.Write(f, val); err != nil {
		t.Fatalf("Write(%v): %v", f, err)
	}
}

// testHarness wires a vCPU with a scripted exit handler, fault handler and
// IRQ sink so the CPU can be tested without the real hypervisor/kernel.
type testHarness struct {
	phys  *mem.PhysMem
	vcpu  *VCPU
	exits []ExitReason
	irqs  []int
	// demand-map guest pages on fault
	faultMap bool
	pt       *pgtable.Table
	nextGPA  mem.GPA
}

func newHarness(t *testing.T) *testHarness {
	t.Helper()
	h := &testHarness{
		phys:    mem.NewPhysMem(0),
		pt:      pgtable.New(),
		nextGPA: mem.PageSize,
	}
	pmlBuf, err := h.phys.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	v := vmcs.New()
	mustWrite(t, v, vmcs.FieldPMLAddress, uint64(pmlBuf))
	h.vcpu = &VCPU{
		Clock: &sim.Clock{},
		Phys:  h.phys,
		VMCS:  v,
		EPT:   ept.New(),
	}
	h.vcpu.GuestPT = h.pt
	h.vcpu.Exits = h
	h.vcpu.Fault = h
	h.vcpu.IRQ = h
	return h
}

// HandleExit implements ExitHandler: maps frames on EPT violations, resets
// the PML index on full, echoes hypercalls.
func (h *testHarness) HandleExit(v *VCPU, e Exit) (uint64, error) {
	h.exits = append(h.exits, e.Reason)
	switch e.Reason {
	case ExitEPTViolation:
		hpa, err := h.phys.AllocFrame()
		if err != nil {
			return 0, err
		}
		return 0, v.EPT.Map(e.GPA.PageFloor(), hpa)
	case ExitPMLFull:
		if err := v.VMCS.Write(vmcs.FieldPMLIndex, vmcs.PMLResetIndex); err != nil {
			return 0, err
		}
		return 0, nil
	case ExitHypercall:
		return uint64(e.Nr) + 100, nil
	}
	return 0, nil
}

// HandlePageFault implements FaultHandler.
func (h *testHarness) HandlePageFault(v *VCPU, gva mem.GVA, write bool) error {
	if !h.faultMap {
		return errors.New("fault handler disabled")
	}
	gpa := h.nextGPA
	h.nextGPA += mem.PageSize
	return h.pt.Map(gva.PageFloor(), gpa, pgtable.FlagWritable|pgtable.FlagUser)
}

// DeliverIRQ implements IRQSink.
func (h *testHarness) DeliverIRQ(vector int) { h.irqs = append(h.irqs, vector) }

func (h *testHarness) mapPage(t *testing.T, gva mem.GVA) {
	t.Helper()
	gpa := h.nextGPA
	h.nextGPA += mem.PageSize
	if err := h.pt.Map(gva, gpa, pgtable.FlagWritable|pgtable.FlagUser); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	h := newHarness(t)
	h.mapPage(t, 0x4000)
	if err := h.vcpu.WriteU64(0x4010, 0xFEEDFACE); err != nil {
		t.Fatal(err)
	}
	v, err := h.vcpu.ReadU64(0x4010)
	if err != nil || v != 0xFEEDFACE {
		t.Fatalf("ReadU64 = %#x, %v", v, err)
	}
	// EPT violation fired once for the frame, then stayed resolved.
	if n := h.vcpu.Counters.Get(CtrEPTViolations); n != 1 {
		t.Errorf("EPT violations = %d, want 1", n)
	}
}

func TestWriteSpanningPages(t *testing.T) {
	h := newHarness(t)
	h.mapPage(t, 0x4000)
	h.mapPage(t, 0x5000)
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i)
	}
	if err := h.vcpu.Write(0x4FE0, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 100)
	if err := h.vcpu.Read(0x4FE0, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], data[i])
		}
	}
}

func TestDemandFault(t *testing.T) {
	h := newHarness(t)
	h.faultMap = true
	if err := h.vcpu.WriteU64(0x7000, 1); err != nil {
		t.Fatal(err)
	}
	if n := h.vcpu.Counters.Get(CtrGuestFaults); n != 1 {
		t.Errorf("guest faults = %d, want 1", n)
	}
}

func TestUnhandledFaultFails(t *testing.T) {
	h := newHarness(t)
	h.faultMap = false
	if err := h.vcpu.WriteU64(0x9000, 1); err == nil {
		t.Error("write to unmapped page with failing handler succeeded")
	}
}

func TestNoAddressSpace(t *testing.T) {
	h := newHarness(t)
	h.vcpu.SetAddressSpace(nil)
	if err := h.vcpu.WriteU64(0x1000, 1); !errors.Is(err, ErrNoAddressSpace) {
		t.Errorf("write with no CR3: %v", err)
	}
}

func TestPMLLogsOnDirtyTransition(t *testing.T) {
	h := newHarness(t)
	h.vcpu.VMCS.SetPMLEnabled(true)
	h.mapPage(t, 0x4000)
	// First write logs; repeated writes to the same page do not.
	for i := 0; i < 5; i++ {
		if err := h.vcpu.WriteU64(0x4000+mem.GVA(i*8), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := h.vcpu.Counters.Get(CtrPMLLogs); n != 1 {
		t.Errorf("PML logs = %d, want 1", n)
	}
	idx := mustRead(t, h.vcpu.VMCS, vmcs.FieldPMLIndex)
	if idx != vmcs.PMLResetIndex-1 {
		t.Errorf("PML index = %d, want %d", idx, vmcs.PMLResetIndex-1)
	}
	// The logged entry is the page-aligned GPA.
	buf := mem.HPA(mustRead(t, h.vcpu.VMCS, vmcs.FieldPMLAddress))
	raw, err := h.phys.ReadU64(buf + mem.HPA(vmcs.PMLResetIndex*8))
	if err != nil {
		t.Fatal(err)
	}
	if mem.GPA(raw).PageOffset() != 0 {
		t.Errorf("logged GPA %#x not page aligned", raw)
	}
}

func TestPMLFullExit(t *testing.T) {
	h := newHarness(t)
	h.vcpu.VMCS.SetPMLEnabled(true)
	// Map and dirty 600 pages: one PML-full exit at 512.
	for i := 0; i < 600; i++ {
		gva := mem.GVA(0x100000 + i*mem.PageSize)
		h.mapPage(t, gva)
		if err := h.vcpu.WriteU64(gva, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := h.vcpu.Counters.Get(CtrPMLFullExits); n != 1 {
		t.Errorf("PML full exits = %d, want 1", n)
	}
	if n := h.vcpu.Counters.Get(CtrPMLLogs); n != 600 {
		t.Errorf("PML logs = %d, want 600", n)
	}
}

func TestHypercallRoundTrip(t *testing.T) {
	h := newHarness(t)
	ret, err := h.vcpu.Hypercall(7, 1, 2)
	if err != nil || ret != 107 {
		t.Fatalf("Hypercall = %d, %v", ret, err)
	}
	if h.vcpu.Counters.Get(CtrHypercalls) != 1 || h.vcpu.Counters.Get(CtrVMExits) != 1 {
		t.Error("hypercall counters wrong")
	}
}

func TestEPMLDualLogging(t *testing.T) {
	h := newHarness(t)
	// Arm both hypervisor PML and guest EPML (via shadow VMCS).
	h.vcpu.VMCS.SetPMLEnabled(true)
	shadow := vmcs.New()
	h.vcpu.VMCS.LinkShadow(shadow,
		vmcs.FieldGuestPMLAddress, vmcs.FieldGuestPMLIndex, vmcs.FieldGuestPMLEnable)
	h.vcpu.VMCS.SetEPMLEnabled(true)
	h.vcpu.EPMLVector = 0xEC

	// Guest buffer at GPA 0x2000, translated by the extended vmwrite.
	if err := h.vcpu.GuestVMWrite(vmcs.FieldGuestPMLAddress, 0x2000); err != nil {
		t.Fatal(err)
	}
	if err := h.vcpu.GuestVMWrite(vmcs.FieldGuestPMLIndex, vmcs.PMLResetIndex); err != nil {
		t.Fatal(err)
	}
	if err := h.vcpu.GuestVMWrite(vmcs.FieldGuestPMLEnable, 1); err != nil {
		t.Fatal(err)
	}
	// The stored address must be the EPT translation of the written GPA.
	wantHPA, err := h.vcpu.EPT.Translate(0x2000)
	if err != nil {
		t.Fatalf("buffer GPA not EPT-mapped after vmwrite: %v", err)
	}
	if stored := mustRead(t, shadow, vmcs.FieldGuestPMLAddress); stored != uint64(wantHPA) {
		t.Errorf("GuestPMLAddress = %#x, want translated HPA %#x", stored, uint64(wantHPA))
	}

	h.mapPage(t, 0x4000)
	if err := h.vcpu.WriteU64(0x4000, 1); err != nil {
		t.Fatal(err)
	}
	// Hypervisor-level PML logs two frames: the data page, and the EPML
	// guest buffer frame the walk circuit appended to (its store runs the
	// EPT dirty protocol too, so live migration resends the log page).
	if n := h.vcpu.Counters.Get(CtrPMLLogs); n != 2 {
		t.Errorf("hypervisor-level logs = %d, want 2 (data page + guest log buffer)", n)
	}
	if n := h.vcpu.Counters.Get(CtrEPMLLogs); n != 1 {
		t.Errorf("guest-level logs = %d, want 1 (dual logging)", n)
	}
	// A second write to the same page: its EPT dirty flag (and the
	// buffer's) are already set, so nothing new reaches either log.
	if err := h.vcpu.WriteU64(0x4000, 2); err != nil {
		t.Fatal(err)
	}
	if n := h.vcpu.Counters.Get(CtrPMLLogs); n != 2 {
		t.Errorf("hypervisor-level logs after rewrite = %d, want still 2", n)
	}
	// The guest buffer holds the GVA, the hypervisor buffer the GPA.
	gbuf := mem.HPA(mustRead(t, shadow, vmcs.FieldGuestPMLAddress))
	raw, err := h.phys.ReadU64(gbuf + mem.HPA(vmcs.PMLResetIndex*8))
	if err != nil {
		t.Fatal(err)
	}
	if mem.GVA(raw) != 0x4000 {
		t.Errorf("guest buffer entry = %#x, want GVA 0x4000", raw)
	}
}

func TestEPMLBufferFullRaisesIRQWithoutExit(t *testing.T) {
	h := newHarness(t)
	shadow := vmcs.New()
	h.vcpu.VMCS.LinkShadow(shadow,
		vmcs.FieldGuestPMLAddress, vmcs.FieldGuestPMLIndex, vmcs.FieldGuestPMLEnable)
	h.vcpu.VMCS.SetEPMLEnabled(true)
	h.vcpu.EPMLVector = 0xEC
	if err := h.vcpu.GuestVMWrite(vmcs.FieldGuestPMLAddress, 0x2000); err != nil {
		t.Fatal(err)
	}
	if err := h.vcpu.GuestVMWrite(vmcs.FieldGuestPMLEnable, 1); err != nil {
		t.Fatal(err)
	}
	// IRQ handler resets the index, emulating the OoH module's drain.
	reset := func() { mustWrite(t, shadow, vmcs.FieldGuestPMLIndex, vmcs.PMLResetIndex) }
	irqSeen := 0
	h.vcpu.IRQ = irqFunc(func(vec int) {
		irqSeen++
		if vec != 0xEC {
			t.Errorf("IRQ vector = %#x", vec)
		}
		reset()
	})

	exitsBefore := h.vcpu.Counters.Get(CtrVMExits)
	for i := 0; i < 700; i++ {
		gva := mem.GVA(0x100000 + i*mem.PageSize)
		h.mapPage(t, gva)
		if err := h.vcpu.WriteU64(gva, 1); err != nil {
			t.Fatal(err)
		}
	}
	if irqSeen != 1 {
		t.Errorf("self-IPIs = %d, want 1", irqSeen)
	}
	// EPML's buffer-full path must not vmexit (posted interrupt); the only
	// exits are the EPT demand allocations.
	extraExits := h.vcpu.Counters.Get(CtrVMExits) - exitsBefore -
		h.vcpu.Counters.Get(CtrEPTViolations)
	if extraExits > 0 {
		t.Errorf("%d unexplained vmexits on the EPML path", extraExits)
	}
}

// irqFunc adapts a function to IRQSink.
type irqFunc func(int)

func (f irqFunc) DeliverIRQ(v int) { f(v) }

func TestKernelAccessBypassesLogging(t *testing.T) {
	h := newHarness(t)
	h.vcpu.VMCS.SetPMLEnabled(true)
	if err := h.vcpu.KernelWriteGPA(0x8000, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if n := h.vcpu.Counters.Get(CtrPMLLogs); n != 0 {
		t.Errorf("kernel write logged %d PML entries", n)
	}
	got := make([]byte, 3)
	if err := h.vcpu.KernelReadGPA(0x8000, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[2] != 3 {
		t.Errorf("kernel read = %v", got)
	}
}

func TestWriteHookObservesPages(t *testing.T) {
	h := newHarness(t)
	h.mapPage(t, 0x4000)
	var hooked []mem.GVA
	id := h.vcpu.AddWriteHook(func(gva mem.GVA) { hooked = append(hooked, gva) })
	if err := h.vcpu.WriteU64(0x4123&^7, 9); err != nil {
		t.Fatal(err)
	}
	if len(hooked) != 1 || hooked[0] != 0x4000 {
		t.Errorf("hook saw %v, want [0x4000]", hooked)
	}
	h.vcpu.RemoveWriteHook(id)
	if err := h.vcpu.WriteU64(0x4123&^7, 10); err != nil {
		t.Fatal(err)
	}
	if len(hooked) != 1 {
		t.Errorf("removed hook still fired: saw %v", hooked)
	}
}

func TestWriteHookRemovalOrderIndependent(t *testing.T) {
	h := newHarness(t)
	h.mapPage(t, 0x4000)
	var a, b, c int
	idA := h.vcpu.AddWriteHook(func(mem.GVA) { a++ })
	idB := h.vcpu.AddWriteHook(func(mem.GVA) { b++ })
	idC := h.vcpu.AddWriteHook(func(mem.GVA) { c++ })
	write := func() {
		t.Helper()
		if err := h.vcpu.WriteU64(0x4000, 1); err != nil {
			t.Fatal(err)
		}
	}
	write() // all three fire
	h.vcpu.RemoveWriteHook(idB)
	write() // a, c fire; b must not
	h.vcpu.RemoveWriteHook(idA)
	write() // only c fires
	h.vcpu.RemoveWriteHook(idC)
	write() // none fire
	if a != 2 || b != 1 || c != 3 {
		t.Errorf("hook fire counts a=%d b=%d c=%d, want 2/1/3", a, b, c)
	}
	if n := h.vcpu.WriteHookCount(); n != 0 {
		t.Errorf("WriteHookCount = %d after removing all, want 0", n)
	}
}

// TestGuestAccessNoAlloc: a guest access allocates nothing on the host,
// neither a TLB-hit Write or Read nor a slow-path Write into a private page
// that logs one PML entry into an armed buffer. The accesses go through
// WriteU64 and ReadU64, whose 8-byte buffers stay on the stack only while
// Write's and Read's buffers do not escape.
func TestGuestAccessNoAlloc(t *testing.T) {
	h := newHarness(t)
	h.vcpu.VMCS.SetPMLEnabled(true)
	h.mapPage(t, 0x4000)
	// Materialize the page and the PML buffer: the accesses below then land
	// in private pages and carve no write buffer.
	page := make([]byte, mem.PageSize)
	if err := h.vcpu.Write(0x4000, page); err != nil {
		t.Fatal(err)
	}
	if err := h.phys.Write(mem.HPA(mustRead(t, h.vcpu.VMCS, vmcs.FieldPMLAddress)), page); err != nil {
		t.Fatal(err)
	}
	gpa, err := h.pt.Translate(0x4000)
	if err != nil {
		t.Fatal(err)
	}
	const writeHit = pgtable.FlagPresent | pgtable.FlagWritable | pgtable.FlagAccessed | pgtable.FlagDirty
	if _, ok := h.vcpu.tlbFrame(0x4008, tlbEPTDirty|tlbEPTAccessed, writeHit); !ok {
		t.Fatal("the written page is not in the TLB, so no access below would hit it")
	}
	for _, c := range []struct {
		name    string
		access  func() error
		pmlLogs int64 // PML entries each access logs
	}{
		{"tlb-hit write", func() error { return h.vcpu.WriteU64(0x4008, 1) }, 0},
		{"tlb-hit read", func() error { _, err := h.vcpu.ReadU64(0x4008); return err }, 0},
		{"slow-path write logging to PML", func() error {
			// Re-arm the page's dirty logging and empty the buffer, so the
			// write walks, logs one entry and never fills the buffer.
			h.vcpu.EPT.ClearDirtyPage(gpa)
			if err := h.vcpu.VMCS.Write(vmcs.FieldPMLIndex, vmcs.PMLResetIndex); err != nil {
				return err
			}
			return h.vcpu.WriteU64(0x4008, 2)
		}, 1},
	} {
		var err error
		logs := h.vcpu.Counters.Get(CtrPMLLogs)
		const runs = 100
		allocs := testing.AllocsPerRun(runs, func() {
			if e := c.access(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		// AllocsPerRun makes one warm-up call before its runs.
		if n := h.vcpu.Counters.Get(CtrPMLLogs) - logs; n != c.pmlLogs*(runs+1) {
			t.Errorf("%s logged %d PML entries in %d accesses, want %d each", c.name, n, runs+1, c.pmlLogs)
		}
		if allocs != 0 {
			t.Errorf("%s: %.1f allocations per access, want 0", c.name, allocs)
		}
	}
}
