// Package boehmgc implements a Boehm-style conservative mark-sweep garbage
// collector with incremental/generational collection driven by dirty page
// tracking, over a page-backed heap in a simulated guest process.
//
// Boehm GC's incremental mode ("virtual dirty bits") avoids re-scanning
// objects whose pages were not modified since the previous cycle; stock
// Boehm obtains the dirty set from /proc (clear_refs + pagemap). The
// paper's patch (§IV-E) replaces exactly that step of the mark phase with
// an OoH ring buffer read; this package accepts any tracking.Technique at
// the same integration point.
package boehmgc

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/gheap"
	"repro/internal/guestos"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tracking"
)

// Object is a handle to a GC-managed object: the guest address of its
// header word. Payload starts one word later.
type Object struct {
	Addr mem.GVA
}

// IsNil reports whether the handle is the null object.
func (o Object) IsNil() bool { return o.Addr == 0 }

// headerBytes is the object header: one word encoding payload size and the
// number of leading pointer slots.
const headerBytes = 8

// maxPtrs is the most pointer slots the header's 16-bit count holds.
const maxPtrs = 0xFFFF

// encodeHeader packs payload size (bytes) and pointer-slot count.
func encodeHeader(size uint64, nptrs int) uint64 { return size<<16 | uint64(nptrs)&maxPtrs }

func decodeHeader(h uint64) (size uint64, nptrs int) { return h >> 16, int(h & maxPtrs) }

// CycleStats records one garbage collection cycle, the unit Fig. 5 plots.
type CycleStats struct {
	Cycle       int
	Incremental bool
	TrackTime   time.Duration // dirty-set acquisition (the technique's share)
	MarkTime    time.Duration // tracing, including TrackTime
	SweepTime   time.Duration
	Total       time.Duration
	DirtyPages  int
	Scanned     int // objects whose slots were re-read from guest memory
	SkippedScan int // clean old objects satisfied from the shadow graph
	Freed       int
	Live        int
}

// Errors returned by the collector.
var (
	ErrNotManaged = errors.New("boehmgc: address is not a managed object")
	ErrBadSlot    = errors.New("boehmgc: pointer slot out of range")
)

// GC is the collector instance for one process.
type GC struct {
	Heap *gheap.Heap
	Proc *guestos.Process

	// Tech supplies dirty pages for incremental cycles; nil forces full
	// stop-the-world tracing every cycle.
	Tech tracking.Technique

	roots map[mem.GVA]struct{}

	// shadow caches each old object's outgoing edges (and block size, for
	// the dirty-page probe) as of the last cycle; objects on clean pages
	// are traced from the shadow without touching guest memory, which is
	// precisely the work incremental collection saves. Shadow presence
	// also distinguishes old objects from new ones: sweep deletes an entry
	// before its block can be reused, so an object allocated since the
	// previous cycle never has one and is always scanned.
	shadow map[mem.GVA]shadowEntry

	// Cycle-scratch structures, reused across cycles so the dirty set is
	// not re-grown from an empty map every cycle. The map is never
	// iterated, so reuse cannot leak map order into the simulation. Marks
	// live in the heap's block index.
	dirty map[mem.GVA]struct{}
	dead  []mem.GVA

	// TriggerBytes starts a cycle automatically once this many bytes have
	// been allocated since the previous cycle (0 disables auto cycles).
	TriggerBytes  uint64
	bytesSinceGC  uint64
	tracking      bool
	clock         *sim.Clock
	cycles        []CycleStats
	scanWordCost  time.Duration
	markEntryCost time.Duration
}

// New builds a collector over a fresh heap of heapBytes inside proc.
func New(proc *guestos.Process, heapBytes uint64, tech tracking.Technique) (*GC, error) {
	heap, err := gheap.New(proc, heapBytes, true)
	if err != nil {
		return nil, err
	}
	model := proc.Kernel().Model
	return &GC{
		Heap:          heap,
		Proc:          proc,
		Tech:          tech,
		roots:         make(map[mem.GVA]struct{}),
		shadow:        make(map[mem.GVA]shadowEntry),
		dirty:         make(map[mem.GVA]struct{}),
		clock:         proc.Kernel().Clock,
		scanWordCost:  model.ReadPerPageOp,
		markEntryCost: model.KernelPageOp,
	}, nil
}

// Alloc creates an object with size payload bytes, the first nptrs words
// of which are pointer slots (initialized to nil).
func (g *GC) Alloc(size uint64, nptrs int) (Object, error) {
	if nptrs > maxPtrs {
		return Object{}, fmt.Errorf("%w: %d pointer slots, the header holds at most %d", ErrBadSlot, nptrs, maxPtrs)
	}
	if uint64(nptrs*8) > sizeAligned(size) {
		return Object{}, fmt.Errorf("boehmgc: %d pointer slots exceed %d payload bytes", nptrs, size)
	}
	if g.TriggerBytes > 0 && g.bytesSinceGC >= g.TriggerBytes {
		if _, err := g.Collect(); err != nil {
			return Object{}, err
		}
	}
	addr, err := g.Heap.Alloc(headerBytes + sizeAligned(size))
	if err != nil {
		// Emergency collection, then retry once: Boehm's slow path.
		if _, gcErr := g.Collect(); gcErr != nil {
			return Object{}, err
		}
		addr, err = g.Heap.Alloc(headerBytes + sizeAligned(size))
		if err != nil {
			return Object{}, err
		}
	}
	if err := g.Proc.WriteU64(addr, encodeHeader(sizeAligned(size), nptrs)); err != nil {
		return Object{}, err
	}
	// Pointer slots start nil; zeroing them is part of allocation.
	for i := 0; i < nptrs; i++ {
		if err := g.Proc.WriteU64(addr.Add(headerBytes+uint64(i)*8), 0); err != nil {
			return Object{}, err
		}
	}
	g.bytesSinceGC += headerBytes + sizeAligned(size)
	return Object{Addr: addr}, nil
}

func sizeAligned(n uint64) uint64 { return (n + 7) &^ 7 }

// AddRoot pins obj as a GC root.
func (g *GC) AddRoot(obj Object) { g.roots[obj.Addr] = struct{}{} }

// RemoveRoot unpins obj.
func (g *GC) RemoveRoot(obj Object) { delete(g.roots, obj.Addr) }

// SetPtr stores a pointer into slot i of obj (a guest memory write: the
// page becomes dirty and the next incremental cycle will re-scan obj).
func (g *GC) SetPtr(obj Object, slot int, target Object) error {
	size, nptrs, err := g.header(obj)
	if err != nil {
		return err
	}
	_ = size
	if slot < 0 || slot >= nptrs {
		return fmt.Errorf("%w: %d of %d", ErrBadSlot, slot, nptrs)
	}
	return g.Proc.WriteU64(obj.Addr.Add(headerBytes+uint64(slot)*8), uint64(target.Addr))
}

// GetPtr loads pointer slot i of obj.
func (g *GC) GetPtr(obj Object, slot int) (Object, error) {
	_, nptrs, err := g.header(obj)
	if err != nil {
		return Object{}, err
	}
	if slot < 0 || slot >= nptrs {
		return Object{}, fmt.Errorf("%w: %d of %d", ErrBadSlot, slot, nptrs)
	}
	v, err := g.Proc.ReadU64(obj.Addr.Add(headerBytes + uint64(slot)*8))
	if err != nil {
		return Object{}, err
	}
	return Object{Addr: mem.GVA(v)}, nil
}

// SetData stores a non-pointer word at byte offset off of obj's payload.
func (g *GC) SetData(obj Object, off uint64, v uint64) error {
	size, nptrs, err := g.header(obj)
	if err != nil {
		return err
	}
	if off < uint64(nptrs*8) || off+8 > size {
		return fmt.Errorf("%w: data offset %d (ptrs %d, size %d)", ErrBadSlot, off, nptrs, size)
	}
	return g.Proc.WriteU64(obj.Addr.Add(headerBytes+off), v)
}

// GetData loads a non-pointer word.
func (g *GC) GetData(obj Object, off uint64) (uint64, error) {
	return g.Proc.ReadU64(obj.Addr.Add(headerBytes + off))
}

// header reads and validates obj's header.
func (g *GC) header(obj Object) (size uint64, nptrs int, err error) {
	if !g.Heap.Contains(obj.Addr) {
		return 0, 0, fmt.Errorf("%w: %v", ErrNotManaged, obj.Addr)
	}
	h, err := g.Proc.ReadU64(obj.Addr)
	if err != nil {
		return 0, 0, err
	}
	size, nptrs = decodeHeader(h)
	return size, nptrs, nil
}

// Cycles returns the per-cycle statistics collected so far.
func (g *GC) Cycles() []CycleStats { return g.cycles }

// LiveObjects returns the number of live heap blocks.
func (g *GC) LiveObjects() int {
	n, _ := g.Heap.Live()
	return n
}
