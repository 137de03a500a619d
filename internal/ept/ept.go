// Package ept implements the Extended Page Table: the hypervisor-managed
// second-level translation from guest physical addresses (GPA) to host
// physical addresses (HPA).
//
// Intel PML hooks the EPT dirty-flag logic: when a guest write causes the
// CPU to set the dirty flag of an EPT entry during the page walk (a 0->1
// transition), the CPU logs the faulting GPA to the PML buffer (§II-B).
// WalkWrite exposes exactly that transition to the vCPU in package cpu.
package ept

import (
	"errors"
	"fmt"

	"repro/internal/mem"
)

// Errors returned by EPT operations. ErrNoMapping is returned bare from the
// translation paths: an EPT violation is expected control flow (every first
// touch of a guest frame takes one), so the hot paths must not allocate an
// error message per miss.
var (
	ErrNoMapping     = errors.New("ept: EPT violation (no mapping)")
	ErrAlreadyMapped = errors.New("ept: gpa already mapped")
	ErrMisaligned    = errors.New("ept: address not page aligned")
)

// Entry flags (subset of the EPT leaf format relevant to PML).
type Entry uint64

const (
	FlagRead     Entry = 1 << 0
	FlagWrite    Entry = 1 << 1
	FlagExec     Entry = 1 << 2
	FlagAccessed Entry = 1 << 8
	FlagDirty    Entry = 1 << 9

	addrMask Entry = 0x000F_FFFF_FFFF_F000
)

// Present reports whether the entry grants any access.
func (e Entry) Present() bool { return e&(FlagRead|FlagWrite|FlagExec) != 0 }

// Dirty reports the EPT dirty flag.
func (e Entry) Dirty() bool { return e&FlagDirty != 0 }

// Accessed reports the EPT accessed flag.
func (e Entry) Accessed() bool { return e&FlagAccessed != 0 }

// HPA returns the host frame base the entry maps.
func (e Entry) HPA() mem.HPA { return mem.HPA(e & addrMask) }

// Table is one VM's EPT. It is not safe for concurrent use; each VM's
// single vCPU owns it (the paper's setup uses 1 vCPU per VM).
//
// Guest frame numbers are dense (the guest kernel hands out GPAs
// sequentially from its frame allocator), so entries live in a slice
// indexed by guest frame number. A zero entry means unmapped: Map always
// grants R|W|X, so every present entry is non-zero.
type Table struct {
	entries []Entry // guest frame number -> entry (0 = unmapped)
	mapped  int
	// DirtySet counts dirty-flag 0->1 transitions, one per PML log event.
	DirtySet int64
	// Violations counts EPT violations (first touch of a guest frame).
	Violations int64
	// gen counts structural and flag-clearing mutations (Map, Unmap,
	// ClearDirty*, ClearAccessed). The vCPU's software TLB keys cached EPT
	// state on it; WalkWrite/WalkRead's own 0->1 flag sets do not bump it,
	// since they only strengthen what a cache entry recorded.
	gen uint64

	// WriteObserver, when non-nil, is called with the GPA of every
	// successful write walk; ReadObserver likewise for read walks. A flag
	// clear bumps gen, which kills the vCPU's cached translations, so the
	// first access to any page after a clear is guaranteed to walk - an
	// observer therefore sees at least one callback per page per logging
	// interval, which is exactly the "perfect oracle" dirty-bit semantics
	// the hypervisor's oracle log implements. Observers run on the vCPU's
	// goroutine and must not mutate the table.
	WriteObserver func(gpa mem.GPA)
	ReadObserver  func(gpa mem.GPA)
}

// Gen returns the mutation generation; see the field comment.
func (t *Table) Gen() uint64 { return t.gen }

// New returns an empty EPT.
func New() *Table {
	return &Table{}
}

// entry returns the entry for a guest frame number (0 when out of range).
func (t *Table) entry(page uint64) Entry {
	if page < uint64(len(t.entries)) {
		return t.entries[page]
	}
	return 0
}

// slot returns a pointer to the entry for page, growing the slice on demand
// (spare capacity is already zeroed, so extending exposes unmapped entries).
func (t *Table) slot(page uint64) *Entry {
	if page >= uint64(len(t.entries)) {
		if page < uint64(cap(t.entries)) {
			t.entries = t.entries[:page+1]
		} else {
			grown := make([]Entry, page+1, (page+1)*2)
			copy(grown, t.entries)
			t.entries = grown
		}
	}
	return &t.entries[page]
}

// Map installs gpa -> hpa with read/write/exec permissions. Both addresses
// must be page aligned.
func (t *Table) Map(gpa mem.GPA, hpa mem.HPA) error {
	if gpa.PageOffset() != 0 || hpa.PageOffset() != 0 {
		return fmt.Errorf("%w: %v -> %v", ErrMisaligned, gpa, hpa)
	}
	s := t.slot(gpa.Page())
	if s.Present() {
		return fmt.Errorf("%w: %v", ErrAlreadyMapped, gpa)
	}
	*s = (FlagRead | FlagWrite | FlagExec).WithHPA(hpa)
	t.mapped++
	t.gen++
	return nil
}

// WithHPA returns the entry retargeted at hpa.
func (e Entry) WithHPA(hpa mem.HPA) Entry {
	return (e &^ addrMask) | (Entry(hpa) & addrMask)
}

// Unmap removes the mapping for gpa and returns the removed entry.
func (t *Table) Unmap(gpa mem.GPA) (Entry, error) {
	page := gpa.Page()
	e := t.entry(page)
	if !e.Present() {
		return 0, fmt.Errorf("%w: %v", ErrNoMapping, gpa)
	}
	t.entries[page] = 0
	t.mapped--
	t.gen++
	return e, nil
}

// Lookup returns the entry covering gpa without touching A/D flags.
func (t *Table) Lookup(gpa mem.GPA) (Entry, bool) {
	e := t.entry(gpa.Page())
	return e, e.Present()
}

// Translate converts gpa to an hpa, preserving the page offset. It returns
// ErrNoMapping (an EPT violation) when the guest frame has no host frame.
func (t *Table) Translate(gpa mem.GPA) (mem.HPA, error) {
	e := t.entry(gpa.Page())
	if !e.Present() {
		t.Violations++
		return 0, ErrNoMapping
	}
	return e.HPA() + mem.HPA(gpa.PageOffset()), nil
}

// WalkWrite performs the EPT part of a write access's page walk: it sets
// the accessed flag, sets the dirty flag, and reports whether the dirty
// flag transitioned 0->1 (the PML trigger condition). It returns an EPT
// violation when the frame is unmapped; the hypervisor then allocates and
// maps a host frame and the vCPU retries.
func (t *Table) WalkWrite(gpa mem.GPA) (hpa mem.HPA, dirtied bool, err error) {
	page := gpa.Page()
	e := t.entry(page)
	if !e.Present() {
		t.Violations++
		return 0, false, ErrNoMapping
	}
	dirtied = !e.Dirty()
	e |= FlagAccessed | FlagDirty
	t.entries[page] = e
	if dirtied {
		t.DirtySet++
	}
	if t.WriteObserver != nil {
		t.WriteObserver(gpa)
	}
	return e.HPA() + mem.HPA(gpa.PageOffset()), dirtied, nil
}

// WalkRead performs the EPT part of a read access: sets the accessed flag
// and reports whether it transitioned 0->1 (the trigger for PML-R, the
// read-logging PML extension used for working-set-size estimation).
func (t *Table) WalkRead(gpa mem.GPA) (hpa mem.HPA, accessed bool, err error) {
	page := gpa.Page()
	e := t.entry(page)
	if !e.Present() {
		t.Violations++
		return 0, false, ErrNoMapping
	}
	accessed = !e.Accessed()
	t.entries[page] = e | FlagAccessed
	if t.ReadObserver != nil {
		t.ReadObserver(gpa)
	}
	return e.HPA() + mem.HPA(gpa.PageOffset()), accessed, nil
}

// ClearAccessed clears every accessed flag and returns how many were set,
// re-arming PML-R for a new working-set sampling interval.
func (t *Table) ClearAccessed() int {
	t.gen++
	n := 0
	for page, e := range t.entries {
		if e.Accessed() {
			n++
			t.entries[page] = e &^ FlagAccessed
		}
	}
	return n
}

// ClearDirty clears the dirty flag of every entry and returns how many were
// dirty. The hypervisor does this when it re-arms dirty logging for a new
// live-migration round.
func (t *Table) ClearDirty() int {
	t.gen++
	n := 0
	for page, e := range t.entries {
		if e.Dirty() {
			n++
			t.entries[page] = e &^ FlagDirty
		}
	}
	return n
}

// ClearDirtyPage clears the dirty flag of one page, re-arming PML logging
// for it. Used between tracking rounds so that re-writes are re-logged.
func (t *Table) ClearDirtyPage(gpa mem.GPA) {
	page := gpa.Page()
	if e := t.entry(page); e.Present() {
		t.entries[page] = e &^ FlagDirty
		t.gen++
	}
}

// Mapped returns the number of mapped guest frames.
func (t *Table) Mapped() int { return t.mapped }

// Snapshot is a captured EPT image: entries (with their A/D flags) and the
// statistics counters. Observers are runtime wiring, not state, and are
// not captured.
type Snapshot struct {
	entries    []Entry
	mapped     int
	dirtySet   int64
	violations int64
}

// Snapshot captures the table's current state.
func (t *Table) Snapshot() *Snapshot {
	return &Snapshot{
		entries:    append([]Entry(nil), t.entries...),
		mapped:     t.mapped,
		dirtySet:   t.DirtySet,
		violations: t.Violations,
	}
}

// Restore rewinds the table to a captured state. The generation advances
// rather than rewinding: every translation the vCPU cached against the
// pre-restore table must die, and gen going backwards could resurrect one.
func (t *Table) Restore(s *Snapshot) {
	t.entries = append(t.entries[:0:0], s.entries...)
	t.mapped = s.mapped
	t.DirtySet = s.dirtySet
	t.Violations = s.violations
	t.gen++
}

// Range calls fn for every mapping until fn returns false, in ascending
// GPA order.
func (t *Table) Range(fn func(gpa mem.GPA, e Entry) bool) {
	for page, e := range t.entries {
		if !e.Present() {
			continue
		}
		if !fn(mem.GPA(uint64(page)<<mem.PageShift), e) {
			return
		}
	}
}
