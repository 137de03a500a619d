package cpu

import (
	"encoding/binary"

	"repro/internal/mem"
	"repro/internal/pgtable"
	"repro/internal/simcache"
	"repro/internal/vmcs"
)

// This file is the vCPU's host-side software TLB: a direct-mapped cache of
// completed two-level walks, plus the cached VMCS arming state. Both exist
// purely to make the simulator faster to *run*; they must never change what
// it *computes*. The invalidation contract (see DESIGN.md):
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
//   - VMCS vmwrites (root or guest mode) and shadow link/unlink bump the
//     VMCS generation, which armState compares before trusting the cached
//     PMLEnabled/epmlArmed pair.
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
	gvaPage   uint64 // page base of the cached GVA (tag)
	epoch     uint64 // tlb.epoch at fill time (address-space tag)
	eptGen    uint64 // EPT generation at fill time
	physEpoch uint64 // PhysMem epoch at fill time (frame pointer tag)
	slot      pgtable.Slot
	gpaPage   mem.GPA    // frame the PTE mapped at fill time
	hpaPage   mem.HPA    // host frame the EPT mapped at fill time
	frame     *mem.Frame // host frame backing hpaPage
	flags     uint8
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

// tlbWriteFrame returns the cached host frame for a write to gva when - and
// only when - the cached walk proves the write can cause no transition AND
// the cached frame pointer is still current (PhysMem epoch unchanged). The
// caller (VCPU.Write) then bypasses PhysMem entirely and writes straight
// into the frame.
func (v *VCPU) tlbWriteFrame(gva mem.GVA) (*mem.Frame, bool) {
	if !simcache.Enabled() || v.SPPCheck != nil {
		return nil, false
	}
	e := &v.tlb.entries[tlbIndex(gva)]
	if e.flags&(tlbValid|tlbEPTDirty) != tlbValid|tlbEPTDirty ||
		e.epoch != v.tlb.epoch ||
		e.gvaPage != uint64(gva.PageFloor()) ||
		e.eptGen != v.EPT.Gen() ||
		e.physEpoch != v.Phys.Epoch() {
		return nil, false
	}
	pte := e.slot.Load()
	const need = pgtable.FlagPresent | pgtable.FlagWritable | pgtable.FlagAccessed | pgtable.FlagDirty
	if pte&need != need || pte.GPA() != e.gpaPage {
		return nil, false
	}
	return e.frame, true
}

// tlbReadFrame is tlbWriteFrame for reads: the guest PTE must be present and
// accessed and the EPT entry accessed, so neither A commit nor (with
// PMLLogReads) an accessed-transition log can fire.
func (v *VCPU) tlbReadFrame(gva mem.GVA) (*mem.Frame, bool) {
	if !simcache.Enabled() {
		return nil, false
	}
	e := &v.tlb.entries[tlbIndex(gva)]
	if e.flags&(tlbValid|tlbEPTAccessed) != tlbValid|tlbEPTAccessed ||
		e.epoch != v.tlb.epoch ||
		e.gvaPage != uint64(gva.PageFloor()) ||
		e.eptGen != v.EPT.Gen() ||
		e.physEpoch != v.Phys.Epoch() {
		return nil, false
	}
	pte := e.slot.Load()
	const need = pgtable.FlagPresent | pgtable.FlagAccessed
	if pte&need != need || pte.GPA() != e.gpaPage {
		return nil, false
	}
	return e.frame, true
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
	frame, err := v.Phys.FrameRef(ee.HPA())
	if err != nil {
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
	e.physEpoch = v.Phys.Epoch()
	e.slot = slot
	e.gpaPage = gpaPage
	e.hpaPage = ee.HPA()
	e.frame = frame
	e.flags = fl
}

// tlbFilledFrame returns the cached frame for gva if the entry was (re)filled
// for exactly the hpa a just-completed walk returned. Used by the slow access
// paths right after walkForWrite/walkForRead: the walk's tlbFill already
// resolved the frame, so the access can skip PhysMem's lookup. No
// flag checks are needed - the walk itself just authorized the access.
func (v *VCPU) tlbFilledFrame(gva mem.GVA, hpa mem.HPA) (*mem.Frame, bool) {
	if !simcache.Enabled() {
		return nil, false
	}
	e := &v.tlb.entries[tlbIndex(gva)]
	if e.flags&tlbValid == 0 ||
		e.epoch != v.tlb.epoch ||
		e.gvaPage != uint64(gva.PageFloor()) ||
		e.hpaPage != hpa.PageFloor() ||
		e.physEpoch != v.Phys.Epoch() {
		return nil, false
	}
	return e.frame, true
}

// bufCache caches the backing frame of the PML/EPML log buffer so the
// per-logged-page 8-byte buffer writes bypass PhysMem's lookup.
// The cache is keyed on the buffer's frame and the PhysMem epoch; a stale
// pointer (FreeFrame, Reset, a snapshot capture or restore) misses and
// re-resolves.
type bufCache struct {
	hpaPage   mem.HPA
	physEpoch uint64
	frame     *mem.Frame
}

// physWriteU64 writes one little-endian word at hpa through the buffer-frame
// cache. Byte-for-byte equivalent to v.Phys.WriteU64 for page-interior
// offsets (PML indices never cross the buffer page).
func (v *VCPU) physWriteU64(c *bufCache, hpa mem.HPA, val uint64) error {
	if !simcache.Enabled() {
		return v.Phys.WriteU64(hpa, val)
	}
	page := hpa.PageFloor()
	if c.frame == nil || c.hpaPage != page || c.physEpoch != v.Phys.Epoch() {
		f, err := v.Phys.FrameRef(page)
		if err != nil {
			return err
		}
		*c = bufCache{hpaPage: page, physEpoch: v.Phys.Epoch(), frame: f}
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], val)
	v.Phys.WriteFrame(c.frame, hpa.PageOffset(), b[:])
	return nil
}

// armCache is the cached VMCS arming state consulted on every guest write.
type armCache struct {
	valid     bool
	vmcsGen   uint64
	shadow    *vmcs.VMCS
	shadowGen uint64
	pml       bool // VMCS.PMLEnabled()
	epml      bool // epmlArmed()
}

// armState returns (PMLEnabled, epmlArmed), from the cache when no vmwrite
// or shadow-link change happened since it was filled.
func (v *VCPU) armState() (pml, epml bool, err error) {
	if simcache.Enabled() && v.arm.valid &&
		v.arm.vmcsGen == v.VMCS.Gen() && v.arm.shadow == v.VMCS.Shadow() &&
		(v.arm.shadow == nil || v.arm.shadowGen == v.arm.shadow.Gen()) {
		return v.arm.pml, v.arm.epml, nil
	}
	pml = v.VMCS.PMLEnabled()
	epml, err = v.epmlArmed()
	if err != nil {
		return false, false, err
	}
	v.arm = armCache{valid: true, vmcsGen: v.VMCS.Gen(),
		shadow: v.VMCS.Shadow(), pml: pml, epml: epml}
	if v.arm.shadow != nil {
		v.arm.shadowGen = v.arm.shadow.Gen()
	}
	return pml, epml, nil
}
