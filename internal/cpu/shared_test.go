package cpu

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/ept"
	"repro/internal/mem"
	"repro/internal/pgtable"
	"repro/internal/trace"
	"repro/internal/vmcs"
)

// newArmedHarness is newHarness with PML and EPML armed, demand-mapped
// guest pages, a tracer and a write hook: everything a guest write can
// touch is on.
func newArmedHarness(t *testing.T) (*testHarness, *vmcs.VMCS, *trace.Memory, *[]mem.GVA) {
	t.Helper()
	h := newHarness(t)
	h.faultMap = true
	h.nextGPA = 0x10000 // clear of the EPML buffer at GPA 0x2000
	h.vcpu.Costs = Costs{WriteOp: 3, ReadOp: 2, VMExit: 50 * time.Nanosecond,
		VMEntry: 40 * time.Nanosecond, PMLLog: 7, IRQDeliver: 11}
	h.vcpu.VMCS.SetPMLEnabled(true)
	shadow := vmcs.New()
	h.vcpu.VMCS.LinkShadow(shadow,
		vmcs.FieldGuestPMLAddress, vmcs.FieldGuestPMLIndex, vmcs.FieldGuestPMLEnable)
	h.vcpu.VMCS.SetEPMLEnabled(true)
	h.vcpu.EPMLVector = 0xEC
	for _, w := range []struct {
		f   vmcs.Field
		val uint64
	}{{vmcs.FieldGuestPMLAddress, 0x2000}, {vmcs.FieldGuestPMLIndex, vmcs.PMLResetIndex}, {vmcs.FieldGuestPMLEnable, 1}} {
		if err := h.vcpu.GuestVMWrite(w.f, w.val); err != nil {
			t.Fatal(err)
		}
	}
	sink := &trace.Memory{}
	h.vcpu.SetTracer(trace.New(sink, 0))
	hooked := new([]mem.GVA)
	h.vcpu.AddWriteHook(func(gva mem.GVA) { *hooked = append(*hooked, gva) })
	return h, shadow, sink, hooked
}

// armedState renders everything a guest write leaves behind in h: the
// counters, the clock, both log buffers and their indices, every guest
// PTE and EPT entry with its A/D bits, the trace, the hooked pages and
// the bytes of [gva, gva+n) read back.
func armedState(t *testing.T, h *testHarness, shadow *vmcs.VMCS, sink *trace.Memory, hooked []mem.GVA, gva mem.GVA, n int) string {
	t.Helper()
	var s strings.Builder
	fmt.Fprintf(&s, "counters %s\nclock %d\n", h.vcpu.Counters.String(), h.vcpu.Clock.Nanos())
	for _, b := range []struct {
		v        *vmcs.VMCS
		addr, ix vmcs.Field
	}{{h.vcpu.VMCS, vmcs.FieldPMLAddress, vmcs.FieldPMLIndex}, {shadow, vmcs.FieldGuestPMLAddress, vmcs.FieldGuestPMLIndex}} {
		page, err := h.phys.FrameBytes(mem.HPA(mustRead(t, b.v, b.addr)))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&s, "log index %d %x\n", mustRead(t, b.v, b.ix), page)
	}
	h.pt.Range(func(a mem.GVA, pte pgtable.PTE) bool {
		fmt.Fprintf(&s, "pte %v %#x\n", a, uint64(pte))
		return true
	})
	h.vcpu.EPT.Range(func(g mem.GPA, e ept.Entry) bool {
		fmt.Fprintf(&s, "ept %v %#x\n", g, uint64(e))
		return true
	})
	if err := h.vcpu.tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&s, "trace %v\nhooks %v\n", sink.Records(), hooked)
	back := make([]byte, n)
	if err := h.vcpu.Read(gva, back); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&s, "bytes %x\n", back)
	return s.String()
}

// frameAt resolves the host frame behind gva in h.
func frameAt(t *testing.T, h *testHarness, gva mem.GVA) *mem.Frame {
	t.Helper()
	pte, ok := h.pt.Lookup(gva)
	if !ok {
		t.Fatalf("%v is not mapped", gva)
	}
	hpa, err := h.vcpu.EPT.Translate(pte.GPA())
	if err != nil {
		t.Fatal(err)
	}
	f, err := h.phys.FrameRef(hpa)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestWriteSharedMatchesWrite: twin vCPUs, one writing a buffer with
// Write and one with WriteShared, page-sized chunk by chunk as a
// workload's Setup does, from a page's start and from 8 bytes in (Boehm's
// payload offset), make the same guest access with PML and EPML armed:
// the same counters, clock, log contents, A/D bits, trace, hooks and
// bytes. WriteShared's frames hold src's windows instead of copies, and a
// later Write over one copies it and leaves src as it was.
func TestWriteSharedMatchesWrite(t *testing.T) {
	const pages = 5
	src := make([]byte, pages*mem.PageSize)
	for i := range src {
		src[i] = byte(i*13 + i>>12)
	}
	orig := bytes.Clone(src)
	for _, po := range []int{0, 8} {
		t.Run(fmt.Sprintf("offset-%d", po), func(t *testing.T) {
			base := mem.GVA(0x100000 + po)
			plain, pShadow, pSink, pHooked := newArmedHarness(t)
			shared, sShadow, sSink, sHooked := newArmedHarness(t)
			for at := 0; at < len(src); at += mem.PageSize {
				n := min(mem.PageSize, len(src)-at)
				if err := plain.vcpu.Write(base.Add(uint64(at)), src[at:at+n]); err != nil {
					t.Fatal(err)
				}
				if err := shared.vcpu.WriteShared(base.Add(uint64(at)), src, at, n); err != nil {
					t.Fatal(err)
				}
			}
			want := armedState(t, plain, pShadow, pSink, *pHooked, base, len(src))
			if got := armedState(t, shared, sShadow, sSink, *sHooked, base, len(src)); got != want {
				t.Fatalf("WriteShared left\n%s\nWrite left\n%s", got, want)
			}
			// Every page whose window lies inside src shares it; Write's
			// pages are private copies.
			for i := 1; i < pages; i++ {
				page := mem.GVA(0x100000 + i*mem.PageSize)
				if frameAt(t, shared, page).Data() != nil || frameAt(t, plain, page).Data() == nil {
					t.Fatalf("page %d: the shared twin holds a private page, or the plain twin none", i)
				}
			}
			// A later Write over an adopted page copies it.
			for _, h := range []*testHarness{plain, shared} {
				if err := h.vcpu.Write(mem.GVA(0x100000+2*mem.PageSize+40), []byte("written")); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(src, orig) {
				t.Fatal("a Write over an adopted page changed src")
			}
			want = armedState(t, plain, pShadow, pSink, *pHooked, base, len(src))
			if got := armedState(t, shared, sShadow, sSink, *sHooked, base, len(src)); got != want {
				t.Fatalf("after a Write over an adopted page, WriteShared's twin left\n%s\nWrite's\n%s", got, want)
			}
		})
	}
}
