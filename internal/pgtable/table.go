package pgtable

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"repro/internal/mem"
	"repro/internal/simcache"
)

// Errors returned by Table operations.
var (
	ErrNotMapped     = errors.New("pgtable: address not mapped")
	ErrAlreadyMapped = errors.New("pgtable: address already mapped")
	ErrMisaligned    = errors.New("pgtable: address not page aligned")
)

// Levels is the depth of the radix tree (PML4 -> PDPT -> PD -> PT).
const Levels = 4

const (
	indexBits = 9
	fanout    = 1 << indexBits // 512 entries per level, as on x86-64
	indexMask = fanout - 1
)

// tableTag identifies which Table owns a node. Nodes reachable from a
// CowClone'd table carry the source's tag; a writing walk copies any node
// whose tag differs from the walker's before touching it (path copying),
// so clones diverge node-by-node while sharing the untouched interior.
type tableTag struct{ _ byte }

// node is one 512-entry page table page. Leaf nodes hold PTEs in entries;
// interior nodes hold child pointers.
type node struct {
	entries  [fanout]PTE
	children [fanout]*node
	live     int       // number of present entries/children, for pruning
	owner    *tableTag // table allowed to mutate this node in place
}

// Table is a 4-level guest page table. The zero value is not usable; create
// tables with New. Table is not safe for concurrent use: in the simulation
// a page table belongs to exactly one guest process on one vCPU.
type Table struct {
	root    *node
	present int // number of mapped pages
	nodes   int // number of allocated radix nodes (root included)

	// psc is the paging-structure cache: the leaf the last walk reached,
	// and pscRegion the 2 MiB region it maps (gva >> regionShift). Walks
	// in that region skip the three upper levels. Unmap drops it, because
	// its walk may prune the leaf, and walk hands it to a writer only when
	// this table owns it. Like the vCPU software TLB it is host work only,
	// switched by simcache.Enabled.
	psc       *node
	pscRegion uint64

	// rev is the incrementally maintained GPA-page -> GVA-page inverse
	// index behind ReverseLookup's O(1) host-work path: one entry per
	// guest frame number (see revSole), so mapping a page and resolving a
	// logged GPA are array stores and loads. The virtual-time cost of a
	// reverse lookup (the paper's M17) is charged by the caller
	// regardless; this index only removes the simulator's own
	// O(present-pages) scan. Frames at or above revDenseFrames live in
	// the revFar side map, so the array never grows past a fixed bound.
	rev    []uint64
	revFar map[uint64]uint64
	// revShared marks rev/revFar as borrowed from a CowClone source; the
	// first mapping change materializes private copies.
	revShared bool

	tag *tableTag
}

// New returns an empty page table.
func New() *Table {
	tg := &tableTag{}
	return &Table{root: &node{owner: tg}, nodes: 1, tag: tg}
}

// Slot is a direct handle on one leaf PTE slot, used by the vCPU's software
// TLB to re-read a cached translation's flags without repeating the radix
// walk. A Slot stays loadable forever: unmapping zeroes the entry (and
// pruning detaches the node with all entries already zero), so a stale Slot
// reads as non-present rather than dangling.
type Slot struct {
	leaf *node
	idx  int
}

// Load returns the slot's current PTE (zero when the slot was never filled
// or the page was unmapped).
func (s Slot) Load() PTE {
	if s.leaf == nil {
		return 0
	}
	return s.leaf.entries[s.idx]
}

// OrFlags ORs flag bits into the slot's PTE, the MMU's A/D commit. It must
// only be used with flag bits (never address bits, which would bypass the
// reverse index) and only on a slot whose PTE is present.
func (s Slot) OrFlags(flags PTE) { s.leaf.entries[s.idx] |= flags }

// indexAt extracts the radix index for the given level (0 = root).
func indexAt(gva mem.GVA, level int) int {
	shift := mem.PageShift + indexBits*(Levels-1-level)
	return int(uint64(gva)>>shift) & indexMask
}

// copyFor returns a private copy of n owned by tg. Children pointers are
// shared: each child is copied in turn only when a write descends into it.
func (n *node) copyFor(tg *tableTag) *node {
	c := &node{entries: n.entries, children: n.children, live: n.live, owner: tg}
	return c
}

// regionShift is the span one leaf node maps: 512 pages, 2 MiB.
const regionShift = mem.PageShift + indexBits

// walk descends to the leaf node for gva. When alloc is true, missing
// interior nodes are created. When write is true, every node on the path
// that is shared with a CowClone source is replaced by a private copy
// before being returned or descended through - callers that will mutate
// the leaf (or hand out a writable Slot on it) must set it. Returns the
// leaf node and the final index, or nil when the path does not exist.
func (t *Table) walk(gva mem.GVA, alloc, write bool) (*node, int) {
	region := uint64(gva) >> regionShift
	if l := t.psc; l != nil && t.pscRegion == region && (!write || l.owner == t.tag) &&
		simcache.Enabled() {
		return l, indexAt(gva, Levels-1)
	}
	if write && t.root.owner != t.tag {
		t.root = t.root.copyFor(t.tag)
	}
	n := t.root
	for level := 0; level < Levels-1; level++ {
		idx := indexAt(gva, level)
		child := n.children[idx]
		if child == nil {
			if !alloc {
				return nil, 0
			}
			child = &node{owner: t.tag}
			n.children[idx] = child
			n.live++
			t.nodes++
		} else if write && child.owner != t.tag {
			child = child.copyFor(t.tag)
			n.children[idx] = child
		}
		n = child
	}
	t.psc, t.pscRegion = n, region
	return n, indexAt(gva, Levels-1)
}

// Map installs a translation gva -> gpa with the given flags (FlagPresent is
// implied). Both addresses must be page aligned and the slot must be free.
func (t *Table) Map(gva mem.GVA, gpa mem.GPA, flags PTE) error {
	if gva.PageOffset() != 0 || gpa.PageOffset() != 0 {
		return fmt.Errorf("%w: map %v -> %v", ErrMisaligned, gva, gpa)
	}
	leaf, idx := t.walk(gva, true, true)
	if leaf.entries[idx].Present() {
		return fmt.Errorf("%w: %v", ErrAlreadyMapped, gva)
	}
	leaf.entries[idx] = (flags | FlagPresent).WithGPA(gpa)
	leaf.live++
	t.present++
	t.revAdd(gva, gpa)
	return nil
}

// Unmap removes the translation for gva and returns the old entry. Interior
// nodes left without any live entry are pruned, so map/unmap churn (GC
// workloads, migration rounds) does not leak the radix interior.
func (t *Table) Unmap(gva mem.GVA) (PTE, error) {
	gva = gva.PageFloor()
	var path [Levels - 1]*node
	// The walk below path-copies and may prune the leaf, so the cached one
	// could be left detached from the tree.
	t.psc = nil
	if t.root.owner != t.tag {
		t.root = t.root.copyFor(t.tag)
	}
	n := t.root
	for level := 0; level < Levels-1; level++ {
		path[level] = n
		idx := indexAt(gva, level)
		child := n.children[idx]
		if child == nil {
			return 0, fmt.Errorf("%w: %v", ErrNotMapped, gva)
		}
		if child.owner != t.tag {
			child = child.copyFor(t.tag)
			n.children[idx] = child
		}
		n = child
	}
	idx := indexAt(gva, Levels-1)
	if !n.entries[idx].Present() {
		return 0, fmt.Errorf("%w: %v", ErrNotMapped, gva)
	}
	old := n.entries[idx]
	n.entries[idx] = 0
	n.live--
	t.present--
	t.revDel(gva, old.GPA())
	for level := Levels - 2; level >= 0 && n.live == 0; level-- {
		parent := path[level]
		parent.children[indexAt(gva, level)] = nil
		parent.live--
		t.nodes--
		n = parent
	}
	return old, nil
}

// Lookup returns the PTE covering gva, without modifying flags.
func (t *Table) Lookup(gva mem.GVA) (PTE, bool) {
	leaf, idx := t.walk(gva.PageFloor(), false, false)
	if leaf == nil {
		return 0, false
	}
	pte := leaf.entries[idx]
	return pte, pte.Present()
}

// LookupSlot is Lookup returning, additionally, a Slot handle on the leaf
// entry so the caller can re-read the PTE later without another walk. The
// walk is a writing one: the returned Slot may commit A/D flags through
// OrFlags, so the leaf must be private to this table, not CoW-shared.
func (t *Table) LookupSlot(gva mem.GVA) (Slot, PTE, bool) {
	leaf, idx := t.walk(gva.PageFloor(), false, true)
	if leaf == nil {
		return Slot{}, 0, false
	}
	pte := leaf.entries[idx]
	return Slot{leaf: leaf, idx: idx}, pte, pte.Present()
}

// Update applies fn to the PTE covering gva and stores the result. It
// returns ErrNotMapped when the page is absent.
func (t *Table) Update(gva mem.GVA, fn func(PTE) PTE) error {
	leaf, idx := t.walk(gva.PageFloor(), false, true)
	if leaf == nil || !leaf.entries[idx].Present() {
		return fmt.Errorf("%w: %v", ErrNotMapped, gva)
	}
	old := leaf.entries[idx]
	nw := fn(old)
	leaf.entries[idx] = nw
	if old&addrMask != nw&addrMask || old.Present() != nw.Present() {
		t.revDel(gva.PageFloor(), old.GPA())
		if nw.Present() {
			t.revAdd(gva.PageFloor(), nw.GPA())
		}
	}
	return nil
}

// SetFlags ORs flags into the PTE covering gva.
func (t *Table) SetFlags(gva mem.GVA, flags PTE) error {
	return t.Update(gva, func(p PTE) PTE { return p | flags })
}

// ClearFlags removes flags from the PTE covering gva.
func (t *Table) ClearFlags(gva mem.GVA, flags PTE) error {
	return t.Update(gva, func(p PTE) PTE { return p &^ flags })
}

// Translate converts any gva to the corresponding gpa, honouring the page
// offset. It does not touch accessed/dirty bits (the MMU in package cpu
// does that).
func (t *Table) Translate(gva mem.GVA) (mem.GPA, error) {
	pte, ok := t.Lookup(gva)
	if !ok {
		return 0, fmt.Errorf("%w: %v", ErrNotMapped, gva)
	}
	return pte.GPA() + mem.GPA(gva.PageOffset()), nil
}

// Present returns the number of mapped pages.
func (t *Table) Present() int { return t.present }

// Nodes returns the number of allocated radix nodes, root included. Churn
// tests use it to assert that Unmap prunes the interior back down.
func (t *Table) Nodes() int { return t.nodes }

// Reverse-index entries. A frame's entry is revNone while nothing maps
// it, its sole mapper's page-aligned GVA tagged with revSole, or
// revAliased once a second GVA maps it: the index can no longer answer
// which GVA the scan would find first, so ReverseLookup scans for it. A
// frame stays aliased when mappers go away, because the index has lost
// track of the survivors and falling back is always correct.
const (
	revNone    uint64 = 0
	revSole    uint64 = 1 // set in the clear low bits of a page-aligned GVA
	revAliased uint64 = 2 // never a tagged GVA, whose bit 0 is set
)

// revDenseFrames bounds the dense reverse index: 4 GiB of guest-physical
// space, an 8 MiB array at most. The guest hands out frames upward from
// GPA 0x1000 without a limit, so a large working set crosses it: every
// ooh* command's -scale multiplies the workload, and micro's large size
// maps 25,600 pages per unit of scale, so from -scale 41 its highest
// frames lie above 2^20 (other workloads cross at larger scales). Those
// frames, and the arbitrary frames up to 2^32 that tests map, go to
// revFar, which keeps their lookups O(1) without sizing the array by a
// GPA's value. A table that reaches this range carries the full array,
// and a fork's first mapping change copies it and revFar.
const revDenseFrames = 1 << 20

// revMaterialize turns the index borrowed from a CowClone source into a
// private copy, paid once by the first mapping change after the clone.
// Flag-only updates (A/D commits, soft-dirty clears) never get here, so a
// fork that only runs the measured phase shares the index for its
// lifetime.
func (t *Table) revMaterialize() {
	if !t.revShared {
		return
	}
	t.revShared = false
	t.rev = slices.Clone(t.rev)
	t.revFar = maps.Clone(t.revFar)
}

// revGet returns the index entry for a guest frame number.
func (t *Table) revGet(frame uint64) uint64 {
	if frame < uint64(len(t.rev)) {
		return t.rev[frame]
	}
	if frame < revDenseFrames {
		return revNone
	}
	return t.revFar[frame]
}

// revPut stores a guest frame number's index entry, growing the dense
// array (amortized, as append does) up to revDenseFrames.
func (t *Table) revPut(frame, e uint64) {
	t.revMaterialize()
	switch {
	case frame < uint64(len(t.rev)):
		t.rev[frame] = e
	case frame < revDenseFrames:
		if e != revNone {
			for uint64(len(t.rev)) < frame {
				t.rev = append(t.rev, revNone)
			}
			t.rev = append(t.rev, e)
		}
	case e == revNone:
		delete(t.revFar, frame)
	default:
		if t.revFar == nil {
			t.revFar = make(map[uint64]uint64)
		}
		t.revFar[frame] = e
	}
}

// revAdd records gva as a mapper of gpa's frame.
func (t *Table) revAdd(gva mem.GVA, gpa mem.GPA) {
	frame, sole := gpa.Page(), uint64(gva)|revSole
	switch t.revGet(frame) {
	case revNone:
		t.revPut(frame, sole)
	case sole, revAliased:
	default:
		t.revPut(frame, revAliased)
	}
}

// revDel drops gva's claim on gpa's frame. Aliased frames stay on the scan
// path.
func (t *Table) revDel(gva mem.GVA, gpa mem.GPA) {
	if frame := gpa.Page(); t.revGet(frame) == uint64(gva)|revSole {
		t.revPut(frame, revNone)
	}
}

// Clone returns a deep copy of the table: radix nodes, PTEs (with their
// A/D flags), statistics and the reverse index. Snapshot capture uses it:
// the source keeps running (its vCPU holds writable Slots into its leaves),
// so the capture must not share a single node with it. For fanning a
// captured, immutable table out into forks, use CowClone instead.
func (t *Table) Clone() *Table {
	tg := &tableTag{}
	return &Table{
		root:    cloneNode(t.root, tg),
		present: t.present,
		nodes:   t.nodes,
		rev:     slices.Clone(t.rev),
		revFar:  maps.Clone(t.revFar),
		tag:     tg,
	}
}

func cloneNode(n *node, tg *tableTag) *node {
	c := &node{entries: n.entries, live: n.live, owner: tg}
	for i, ch := range n.children {
		if ch != nil {
			c.children[i] = cloneNode(ch, tg)
		}
	}
	return c
}

// CowClone returns a copy-on-write clone: O(1) instead of O(pages). The
// clone shares the source's radix nodes and reverse index and diverges
// node-by-node as it is written (writing walks path-copy shared nodes;
// the first mapping change copies the reverse index). The source MUST be
// immutable for the clone's lifetime - guestos snapshots qualify: they own
// a private deep Clone that nothing writes - which is what makes forking
// a captured machine per grid cell cheap. Any number of clones may share
// one source; each diverges privately.
func (t *Table) CowClone() *Table {
	return &Table{
		root:      t.root,
		present:   t.present,
		nodes:     t.nodes,
		rev:       t.rev,
		revFar:    t.revFar,
		revShared: true,
		tag:       &tableTag{},
	}
}

// Range calls fn for every present page, in ascending GVA order, until fn
// returns false. It reports whether the iteration ran to completion.
func (t *Table) Range(fn func(gva mem.GVA, pte PTE) bool) bool {
	return rangeNode(t.root, 0, 0, fn)
}

func rangeNode(n *node, level int, base uint64, fn func(mem.GVA, PTE) bool) bool {
	shift := mem.PageShift + indexBits*(Levels-1-level)
	if level == Levels-1 {
		for i := 0; i < fanout; i++ {
			if pte := n.entries[i]; pte.Present() {
				if !fn(mem.GVA(base|uint64(i)<<shift), pte) {
					return false
				}
			}
		}
		return true
	}
	for i := 0; i < fanout; i++ {
		if child := n.children[i]; child != nil {
			if !rangeNode(child, level+1, base|uint64(i)<<shift, fn) {
				return false
			}
		}
	}
	return true
}

// RangeSpan is like Range but restricted to [start, end).
func (t *Table) RangeSpan(start, end mem.GVA, fn func(gva mem.GVA, pte PTE) bool) {
	t.Range(func(gva mem.GVA, pte PTE) bool {
		if gva < start.PageFloor() {
			return true
		}
		if gva >= end {
			return false
		}
		return fn(gva, pte)
	})
}

// ReverseLookup returns the GVA of the page mapping gpa's frame. This is
// the operation SPML performs for every logged GPA (the paper's M17); its
// virtual-time cost is charged by the caller from the cost model regardless
// of how the answer is computed here. With the incremental index enabled
// (the default) the host work is an array load; otherwise - or for frames
// that ever had two mappers - it is the full table scan.
func (t *Table) ReverseLookup(gpa mem.GPA) (mem.GVA, bool) {
	target := gpa.PageFloor()
	if simcache.Enabled() {
		switch e := t.revGet(gpa.Page()); e {
		case revNone:
			return 0, false
		case revAliased:
		default:
			return mem.GVA(e&^revSole) + mem.GVA(gpa.PageOffset()), true
		}
	}
	var found mem.GVA
	ok := false
	t.Range(func(gva mem.GVA, pte PTE) bool {
		if pte.GPA() == target {
			found, ok = gva, true
			return false
		}
		return true
	})
	if !ok {
		return 0, false
	}
	return found + mem.GVA(gpa.PageOffset()), true
}
