package cpu

import (
	"repro/internal/mem"
	"repro/internal/pgtable"
	"repro/internal/simcache"
)

// This file is the vCPU's host-side software TLB: a direct-mapped cache of
// completed two-level walks, the vCPU's only host cache. It exists purely
// to make the simulator faster to *run*; it must never change what it
// *computes*. The invalidation contract (see DESIGN.md):
//
//   - Guest PT mutations need no explicit invalidation because entries
//     cache a pgtable.Slot, not a PTE value: every hit re-reads the live
//     PTE through the slot. Unmap zeroes the entry (and pruning only
//     detaches all-zero nodes), so stale slots read as non-present; a
//     remap to the same slot is caught by comparing the live PTE's frame
//     against the cached GPA; flag clears (ClearFlags/Update, soft-dirty
//     re-arms) fail the Accessed/Dirty criteria.
//   - CR3 switches (SetAddressSpace) bump tlb.epoch, invalidating every
//     entry at once: slots of another address space must never be read.
//   - EPT mutations (Map/Unmap/ClearDirty/ClearDirtyPage/ClearAccessed)
//     bump the EPT generation, which every hit compares. EPT flag *sets*
//     by WalkWrite/WalkRead do not bump it: they only strengthen the
//     cached eptDirty/eptAccessed bits, never weaken them.
//   - Host memory changes (frees, resets, snapshot captures and restores)
//     need no invalidation: an entry caches the host frame's address, not
//     the frame, and every hit resolves it through PhysMem.FrameRef.
//
// A hit is only taken when no architectural transition is possible: the
// guest PTE is already Accessed+Dirty and the EPT entry already Dirty (for
// writes), so no A/D commit, no PML or EPML log, and no arming check can
// fire - the walk's only remaining effect is the translation itself, which
// is exactly what the cache returns. Anything else falls through to the
// slow path, which performs (and re-caches) the full walk.

// tlbSize is the number of direct-mapped entries (power of two). 4096
// entries cover a 16 MiB working set exactly; larger sets still hit on the
// hot subset and fall through for the rest.
const tlbSize = 4096

// tlbEntry flag bits.
const (
	tlbValid       = 1 << 0
	tlbEPTDirty    = 1 << 1 // EPT entry was Dirty when cached
	tlbEPTAccessed = 1 << 2 // EPT entry was Accessed when cached
)

// tlbEntry caches one completed walk.
type tlbEntry struct {
	gvaPage uint64 // page base of the cached GVA (tag)
	epoch   uint64 // tlb.epoch at fill time (address-space tag)
	eptGen  uint64 // EPT generation at fill time
	slot    pgtable.Slot
	gpaPage mem.GPA // frame the PTE mapped at fill time
	hpaPage mem.HPA // host frame the EPT mapped at fill time
	flags   uint8
}

// tlbState is the per-vCPU cache; the zero value is empty and ready.
type tlbState struct {
	entries [tlbSize]tlbEntry
	epoch   uint64
}

// flush invalidates every entry (a CR3 switch).
func (t *tlbState) flush() { t.epoch++ }

func tlbIndex(gva mem.GVA) int {
	return int(uint64(gva)>>mem.PageShift) & (tlbSize - 1)
}

// tlbFrame returns the host frame for an access to gva when - and only
// when - the cached walk proves the access can cause no transition: the
// entry is current and was filled with the EPT flag eptFlag set, and the
// live guest PTE holds every flag in need and still maps the cached GPA. A
// write needs a dirty EPT entry and a present, writable, accessed and dirty
// PTE; a read needs an accessed EPT entry and a present, accessed PTE, so
// neither an A commit nor (with PMLLogReads) an accessed-transition log can
// fire. The frame is resolved on every hit and is valid for this one
// access; a failed lookup is a miss.
func (v *VCPU) tlbFrame(gva mem.GVA, eptFlag uint8, need pgtable.PTE) (*mem.Frame, bool) {
	if !simcache.Enabled() {
		return nil, false
	}
	e := &v.tlb.entries[tlbIndex(gva)]
	if e.flags&(tlbValid|eptFlag) != tlbValid|eptFlag ||
		e.epoch != v.tlb.epoch ||
		e.gvaPage != uint64(gva.PageFloor()) ||
		e.eptGen != v.EPT.Gen() {
		return nil, false
	}
	if pte := e.slot.Load(); pte&need != need || pte.GPA() != e.gpaPage {
		return nil, false
	}
	f, err := v.Phys.FrameRef(e.hpaPage)
	return f, err == nil
}

// tlbFill caches a just-completed walk. The EPT entry is re-read so the
// cached eptDirty/eptAccessed bits reflect any clearing a handler did
// mid-walk (e.g. a PML-full drain re-arming the very page being written).
func (v *VCPU) tlbFill(gva mem.GVA, slot pgtable.Slot) {
	if !simcache.Enabled() {
		return
	}
	pte := slot.Load()
	if !pte.Present() {
		return
	}
	gpaPage := pte.GPA()
	ee, ok := v.EPT.Lookup(gpaPage)
	if !ok {
		return
	}
	var fl uint8 = tlbValid
	if ee.Dirty() {
		fl |= tlbEPTDirty
	}
	if ee.Accessed() {
		fl |= tlbEPTAccessed
	}
	// Field stores, not a composite literal: assigning a literal builds a
	// zeroed temporary and block-copies it, with a bulk write barrier while
	// the GC marks, on every miss.
	e := &v.tlb.entries[tlbIndex(gva)]
	e.gvaPage = uint64(gva.PageFloor())
	e.epoch = v.tlb.epoch
	e.eptGen = v.EPT.Gen()
	e.slot = slot
	e.gpaPage = gpaPage
	e.hpaPage = ee.HPA()
	e.flags = fl
}

// armState returns (PMLEnabled, epmlArmed), read from the VMCS on each
// call.
func (v *VCPU) armState() (pml, epml bool, err error) {
	epml, err = v.epmlArmed()
	return v.VMCS.PMLEnabled(), epml, err
}
