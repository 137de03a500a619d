package mem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Errors returned by PhysMem.
var (
	ErrOutOfMemory  = errors.New("mem: out of physical memory")
	ErrUnmappedHPA  = errors.New("mem: access to unallocated host frame")
	ErrCrossesFrame = errors.New("mem: access crosses a frame boundary")
)

// slabFrames is how many pages one backing allocation holds at most.
// Handing backing arrays out of slabs keeps a workload touching gigabytes
// at thousands of allocator calls instead of millions. Page slabs start at
// one page and double up to this size, so a PhysMem that materializes a
// handful of pages (a forked cell writing only its log buffers) does not
// zero a whole slab for them; the 256 KiB cap bounds what a machine
// strands in the unused tail of its last slab.
const slabFrames = 64

// frameSlabLen is how many Frame structs one allocation holds. A frame
// struct is handed out for every allocated page and for every page a fork
// first touches, and 512 of them take 20 KiB.
const frameSlabLen = 512

// Sparse-frame tuning: a frame buffers up to sparseWritesMax small writes
// (each at most sparseWriteBytes long) before its 4 KiB backing array is
// materialized. The dominant dirty-tracking access pattern - one word
// written per page per pass, rewritten in place - fits entirely in the
// buffer, so such frames never allocate, zero, or cache-miss 4 KiB of
// backing.
const (
	sparseWriteBytes = 16
	sparseWritesMax  = 6
)

// swSlabEntries is how many sparseWrite entries one write-buffer slab holds:
// room for 1024 frames to take their first buffered write, or for 512
// snapshot-shared frames to diverge with the common one buffered write
// plus a spare slot each.
const swSlabEntries = 1024

// sparseWrite is one buffered small write. Buffered writes never overlap
// (an overlapping write materializes the frame), so replay order within the
// buffer does not matter; exact (off, n) rewrites update in place.
type sparseWrite struct {
	off uint16
	n   uint16
	val [sparseWriteBytes]byte
}

// Frame is one 4 KiB host frame. A frame starts as implicit zeros: small
// writes are buffered sparsely and reads overlay them on zeros. The first
// large or overlapping write, or overflow of the buffer, materializes the
// backing array (pre-zeroed, from the slab) and replays the buffer into it.
//
// Mutating methods follow PhysMem's ownership model: a frame is only ever
// mutated by the goroutine driving the VM it is mapped into (materialization
// itself locks PhysMem for the slab). The vCPU software TLB caches *Frame
// pointers under the Epoch contract.
//
// A frame whose backing is shared with a Snapshot carries the ro flag, and
// every write reaches it through PhysMem.WriteFrame, which diverges it
// copy-on-write at the smallest granule that can take the write: a sparse
// frame copies its write buffer (at most sparseWritesMax entries); a
// materialized page, or a write the buffer cannot take, copies 4 KiB.
type Frame struct {
	data *[PageSize]byte
	sw   []sparseWrite
	// ro marks the backing (data or sw) as shared with a Snapshot. Set
	// under PhysMem.mu with all VM goroutines quiescent (the snapshot
	// contract); cleared, also under PhysMem.mu, when WriteFrame gives the
	// frame a private buffer or page.
	ro bool
}

// Data returns the materialized backing array for in-place mutation, or
// nil while the frame is sparse or its backing is snapshot-shared (writers
// then go through PhysMem.WriteFrame).
func (f *Frame) Data() *[PageSize]byte {
	if f.ro {
		return nil
	}
	return f.data
}

// slot reports where a write of n bytes at off lands in the sparse buffer:
// the index of the buffered write it rewrites exactly, len(f.sw) for a new
// entry, or -1 when the buffer cannot take it - the frame is materialized,
// the write is large, it overlaps a buffered write without matching it
// exactly, or the buffer is full. Whether the buffer is snapshot-shared
// does not matter here; WriteFrame unshares it before writing.
func (f *Frame) slot(off uint64, n int) int {
	if f.data != nil || n > sparseWriteBytes {
		return -1
	}
	end := off + uint64(n)
	for i := range f.sw {
		w := &f.sw[i]
		if uint64(w.off) == off && int(w.n) == n {
			return i
		}
		if uint64(w.off) < end && off < uint64(w.off)+uint64(w.n) {
			return -1
		}
	}
	if len(f.sw) >= sparseWritesMax {
		return -1
	}
	return len(f.sw)
}

// ReadAt copies len(b) bytes starting at off into b, overlaying buffered
// writes on zeros when the frame is sparse.
func (f *Frame) ReadAt(b []byte, off uint64) {
	if f.data != nil {
		copy(b, f.data[off:off+uint64(len(b))])
		return
	}
	for i := range b {
		b[i] = 0
	}
	end := off + uint64(len(b))
	for i := range f.sw {
		w := &f.sw[i]
		ws, we := uint64(w.off), uint64(w.off)+uint64(w.n)
		if we <= off || ws >= end {
			continue
		}
		cs, ce := ws, we
		if cs < off {
			cs = off
		}
		if ce > end {
			ce = end
		}
		copy(b[cs-off:ce-off], w.val[cs-ws:ce-ws])
	}
}

// U64At loads the little-endian word at off (off+8 must stay in the frame).
func (f *Frame) U64At(off uint64) uint64 {
	if f.data != nil {
		return binary.LittleEndian.Uint64(f.data[off : off+8])
	}
	var b [8]byte
	f.ReadAt(b[:], off)
	return binary.LittleEndian.Uint64(b[:])
}

// PhysMem is the simulated host DRAM: a set of 4 KiB frames allocated on
// demand. Frames are identified by their HPA (always page aligned). PhysMem
// is safe for concurrent use; in multi-VM experiments all VMs share one
// PhysMem, exactly as all guests share the host's DRAM.
//
// HPAs are dense (sequential from PageSize, recycling freed addresses), so
// frames live in a slice indexed by host frame number rather than a map:
// frame resolution is on the per-memory-op hot path.
type PhysMem struct {
	mu     sync.Mutex
	frames []*Frame // host frame number -> frame (nil = unallocated or lazy)
	// base is the immutable snapshot image this PhysMem was forked or
	// restored from. Frame structs materialize out of it lazily: a nil
	// frames[i] with base[i].used means "not touched since the fork" and
	// resolves on first access. This keeps fork O(1) in frame-struct work
	// instead of O(live frames). Freed lazy slots are tombstoned (see
	// freedTomb) so they do not resurrect from base.
	base     []snapFrame
	live     int
	next     HPA
	free     []HPA
	fslab    []Frame          // frame structs for upcoming allocations
	slab     [][PageSize]byte // pre-zeroed backing for materializations
	slabLen  int              // length of the last page slab allocated
	swslab   []sparseWrite    // private write buffers for diverging frames
	maxBytes uint64           // 0 means unlimited
	// epoch counts the events after which an externally cached frame pointer
	// may be stale (FreeFrame, Reset). The vCPU software TLB compares it
	// before trusting a cached FrameRef.
	epoch atomic.Uint64
}

// NewPhysMem returns an empty physical memory. If maxBytes is non-zero,
// AllocFrame fails with ErrOutOfMemory once that many bytes of frames are
// live, modelling a host with finite DRAM.
func NewPhysMem(maxBytes uint64) *PhysMem {
	return &PhysMem{
		next:     PageSize, // keep HPA 0 invalid, like a null frame
		maxBytes: maxBytes,
	}
}

// AllocFrame allocates one zeroed 4 KiB frame and returns its HPA.
func (p *PhysMem) AllocFrame() (HPA, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.maxBytes != 0 && uint64(p.live+1)*PageSize > p.maxBytes {
		return 0, ErrOutOfMemory
	}
	var hpa HPA
	if n := len(p.free); n > 0 {
		hpa = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		hpa = p.next
		p.next += PageSize
	}
	if len(p.fslab) == 0 {
		p.fslab = make([]Frame, frameSlabLen)
	}
	f := &p.fslab[0]
	p.fslab = p.fslab[1:]
	idx := int(hpa.Page())
	if idx >= len(p.frames) {
		if idx < cap(p.frames) {
			p.frames = p.frames[:idx+1]
		} else {
			grown := make([]*Frame, idx+1, (idx+1)*2)
			copy(grown, p.frames)
			p.frames = grown
		}
	}
	p.frames[idx] = f
	p.live++
	return hpa, nil
}

// freedTomb marks a frame slot freed after a fork/restore: distinguishable
// from nil, which would lazily resurrect the frame from the base image.
var freedTomb = &Frame{}

// FreeFrame releases the frame at hpa. Freeing an unallocated frame is an
// error: it indicates a bookkeeping bug in a caller.
func (p *PhysMem) FreeFrame(hpa HPA) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	idx := int(hpa.Page())
	if p.frameLocked(idx) == nil {
		return fmt.Errorf("%w: free of %v", ErrUnmappedHPA, hpa)
	}
	if p.base != nil {
		p.frames[idx] = freedTomb
	} else {
		p.frames[idx] = nil
	}
	p.live--
	p.free = append(p.free, hpa)
	p.epoch.Add(1)
	return nil
}

// FrameCount reports the number of live frames.
func (p *PhysMem) FrameCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.live
}

// Epoch returns the frame-invalidation epoch; it advances whenever a
// previously returned FrameRef may have become stale (FreeFrame, Reset).
func (p *PhysMem) Epoch() uint64 { return p.epoch.Load() }

// FrameRef returns the frame containing hpa. The pointer stays valid while
// Epoch is unchanged; the vCPU software TLB caches it under that contract.
func (p *PhysMem) FrameRef(hpa HPA) (*Frame, error) {
	return p.frame(hpa)
}

// WriteFrame copies b to off in f, a frame resolved from p (the write must
// stay inside the frame). It is the one place that decides how a write
// lands: in place in a private page, in the sparse buffer, or in a page
// materialized for it. A snapshot-shared sparse frame whose buffer can take
// the write diverges onto a private copy of that buffer; every other
// shared frame diverges through Materialize, which copies the page.
func (p *PhysMem) WriteFrame(f *Frame, off uint64, b []byte) {
	if d := f.Data(); d != nil {
		copy(d[off:], b)
		return
	}
	i := f.slot(off, len(b))
	if i < 0 {
		copy(p.Materialize(f)[off:], b)
		return
	}
	if f.ro || f.sw == nil {
		p.carveSparse(f)
	}
	if i == len(f.sw) {
		f.sw = append(f.sw, sparseWrite{off: uint16(off), n: uint16(len(b))})
	}
	copy(f.sw[i].val[:], b)
}

// carveSparse gives f a private sparse buffer carved from the buffer slab,
// holding a copy of its current entries (none on a first write, or the
// snapshot-shared ones) and room for one more, so that the write that
// needed it appends without allocating.
func (p *PhysMem) carveSparse(f *Frame) {
	n := len(f.sw)
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.swslab) < n+1 {
		p.swslab = make([]sparseWrite, swSlabEntries)
	}
	sw := p.swslab[: n : n+1]
	p.swslab = p.swslab[n+1:]
	copy(sw, f.sw)
	f.sw = sw
	f.ro = false
}

// Materialize builds (if needed) and returns the frame's private backing
// array, replaying any buffered sparse writes into the pre-zeroed array. A
// snapshot-shared frame gets a fresh copy of its shared page here.
func (p *PhysMem) Materialize(f *Frame) *[PageSize]byte {
	if f.data != nil && !f.ro {
		return f.data
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.materializeLocked(f)
}

func (p *PhysMem) materializeLocked(f *Frame) *[PageSize]byte {
	if f.data == nil || f.ro {
		if len(p.slab) == 0 {
			p.slabLen = min(max(2*p.slabLen, 1), slabFrames)
			p.slab = make([][PageSize]byte, p.slabLen)
		}
		d := &p.slab[0]
		p.slab = p.slab[1:]
		if f.data != nil {
			// Shared materialized page: diverge onto a private copy.
			*d = *f.data
		} else {
			// Sparse buffer (shared or private): replaying only reads it.
			for i := range f.sw {
				w := &f.sw[i]
				copy(d[w.off:], w.val[:w.n])
			}
		}
		f.sw = nil
		f.data = d
		f.ro = false
	}
	return f.data
}

// frame returns the frame containing hpa.
func (p *PhysMem) frame(hpa HPA) (*Frame, error) {
	idx := int(hpa.Page())
	p.mu.Lock()
	f := p.frameLocked(idx)
	p.mu.Unlock()
	if f == nil {
		return nil, fmt.Errorf("%w: %v", ErrUnmappedHPA, hpa)
	}
	return f, nil
}

// frameLocked resolves the frame at host frame number idx, materializing
// the Frame struct lazily from the fork/restore base image on first touch.
// Returns nil for unallocated (or freed) slots. Caller holds p.mu.
func (p *PhysMem) frameLocked(idx int) *Frame {
	if idx < 0 || idx >= len(p.frames) {
		return nil
	}
	f := p.frames[idx]
	if f == freedTomb {
		return nil
	}
	if f == nil {
		if p.base == nil || idx >= len(p.base) || !p.base[idx].used {
			return nil
		}
		if len(p.fslab) == 0 {
			p.fslab = make([]Frame, frameSlabLen)
		}
		f = &p.fslab[0]
		p.fslab = p.fslab[1:]
		sf := &p.base[idx]
		*f = Frame{data: sf.data, sw: sf.sw, ro: true}
		p.frames[idx] = f
	}
	return f
}

// Write copies b into physical memory at hpa. The access must not cross a
// frame boundary (callers split accesses per page, as the MMU does).
func (p *PhysMem) Write(hpa HPA, b []byte) error {
	off := hpa.PageOffset()
	if off+uint64(len(b)) > PageSize {
		return fmt.Errorf("%w: write of %d bytes at %v", ErrCrossesFrame, len(b), hpa)
	}
	f, err := p.frame(hpa)
	if err != nil {
		return err
	}
	p.WriteFrame(f, off, b)
	return nil
}

// Read copies len(b) bytes from physical memory at hpa into b. The access
// must not cross a frame boundary.
func (p *PhysMem) Read(hpa HPA, b []byte) error {
	off := hpa.PageOffset()
	if off+uint64(len(b)) > PageSize {
		return fmt.Errorf("%w: read of %d bytes at %v", ErrCrossesFrame, len(b), hpa)
	}
	f, err := p.frame(hpa)
	if err != nil {
		return err
	}
	f.ReadAt(b, off)
	return nil
}

// WriteU64 stores a little-endian 64-bit value at hpa.
func (p *PhysMem) WriteU64(hpa HPA, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return p.Write(hpa, b[:])
}

// ReadU64 loads a little-endian 64-bit value from hpa.
func (p *PhysMem) ReadU64(hpa HPA) (uint64, error) {
	var b [8]byte
	if err := p.Read(hpa, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// FrameBytes returns a copy of the full frame containing hpa.
func (p *PhysMem) FrameBytes(hpa HPA) ([]byte, error) {
	f, err := p.frame(hpa)
	if err != nil {
		return nil, err
	}
	out := make([]byte, PageSize)
	f.ReadAt(out, 0)
	return out, nil
}

// Reset discards every frame, returning the memory to its initial state.
func (p *PhysMem) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.frames = nil
	p.base = nil
	p.fslab = nil
	p.slab = nil
	p.slabLen = 0
	p.swslab = nil
	p.live = 0
	p.free = nil
	p.next = PageSize
	p.epoch.Add(1)
}
