package mem

import (
	"bytes"
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

// chunkFrames is how many Frame values one chunk holds: 512 of them take
// 20 KiB and cover 2 MiB of host frames.
const chunkFrames = 512

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
// one-entry buffers to grow by the entry an appending write needs.
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
// and growing the buffer lock PhysMem for the slabs). Frames live in
// chunks; the vCPU software TLB caches *Frame pointers into them under the
// Epoch contract.
//
// A frame's write buffer is always private to its chunk's owner: copying a
// frozen chunk copies its buffers. Its materialized page may still be
// shared, with a Snapshot or with an immutable host buffer that
// PhysMem.WriteShared landed, which the ro flag marks; every write reaches
// such a page through PhysMem.WriteFrame, which copies it (Materialize)
// first.
type Frame struct {
	data *[PageSize]byte
	sw   []sparseWrite
	// ro marks data as shared: with a frozen chunk, or as a window of an
	// immutable host buffer. Set when a chunk copy adopts the page, or by
	// WriteShared on the goroutine that owns the frame; cleared, under
	// PhysMem.mu, when Materialize gives the frame a private copy.
	ro   bool
	used bool // allocated; false for a free or never-allocated slot
}

// Data returns the materialized backing array for in-place mutation, or
// nil while the frame is sparse or its page is shared (ro); writers then go
// through PhysMem.WriteFrame.
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
// exactly, or the buffer is full.
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

// matchesOutside reports whether f's bytes outside [off, off+n) equal
// win's. Those bytes must fit the sparse buffer's reach, 96 bytes.
func (f *Frame) matchesOutside(win []byte, off uint64, n int) bool {
	var b [sparseWritesMax * sparseWriteBytes]byte
	end := off + uint64(n)
	head, tail := b[:off], b[off:off+PageSize-end]
	f.ReadAt(head, 0)
	f.ReadAt(tail, end)
	return bytes.Equal(head, win[:off]) && bytes.Equal(tail, win[end:])
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
// frames live in chunks of chunkFrames Frame values, found through a
// directory indexed by host frame number / chunkFrames. Frame resolution is
// on the per-memory-op hot path, so it reads the directory and the chunk
// with atomic loads and takes no lock. A chunk is either owned by this
// PhysMem, which mutates its frames in place, or frozen: captured by a
// Snapshot and shared read-only with every PhysMem forked or restored from
// it. The first access to a frame in a frozen chunk copies the chunk under
// mu, and lookups never return a frame of a frozen chunk.
type PhysMem struct {
	mu       sync.Mutex
	dir      atomic.Pointer[[]atomic.Pointer[chunk]] // chunk directory; a nil entry holds no frame yet
	live     int
	next     HPA
	free     []HPA
	slab     [][PageSize]byte // pre-zeroed backing for materializations
	slabLen  int              // length of the last page slab allocated
	swslab   []sparseWrite    // write-buffer entries for appending writes
	maxBytes uint64           // 0 means unlimited
	// epoch counts the events after which an externally cached frame pointer
	// may be stale (FreeFrame, Reset, a capture freezing the chunks, a
	// restore). The vCPU software TLB compares it before trusting a cached
	// FrameRef.
	epoch atomic.Uint64
}

// chunk holds the frames of chunkFrames consecutive host frame numbers.
// frozen is set once, by CaptureSnapshot, and a frozen chunk is never
// written again.
type chunk struct {
	frames [chunkFrames]Frame
	frozen bool
}

// clone copies a frozen chunk for a new owner, with all its frames' sparse
// write buffers in one exact-size allocation: rewrites of buffered words
// then take no lock and allocate nothing. Materialized pages stay shared,
// marked ro, until a write materializes a private copy.
func (c *chunk) clone() *chunk {
	n := 0
	for i := range c.frames {
		n += len(c.frames[i].sw)
	}
	sw := make([]sparseWrite, n)
	nc := new(chunk)
	nc.frames = c.frames
	for i := range nc.frames {
		f := &nc.frames[i]
		if k := copy(sw, f.sw); k > 0 {
			f.sw, sw = sw[:k:k], sw[k:]
		}
		f.ro = f.data != nil
	}
	return nc
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
	p.ownLocked(hpa.Page(), true).frames[hpa.Page()%chunkFrames] = Frame{used: true}
	p.live++
	return hpa, nil
}

// FreeFrame releases the frame at hpa. Freeing an unallocated frame is an
// error: it indicates a bookkeeping bug in a caller.
func (p *PhysMem) FreeFrame(hpa HPA) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	f := p.ownFrameLocked(hpa)
	if f == nil {
		return fmt.Errorf("%w: free of %v", ErrUnmappedHPA, hpa)
	}
	*f = Frame{}
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
// previously returned FrameRef may have become stale (FreeFrame, Reset,
// CaptureSnapshot, RestoreSnapshot).
func (p *PhysMem) Epoch() uint64 { return p.epoch.Load() }

// FrameRef returns the frame containing hpa. The pointer stays valid while
// Epoch is unchanged; the vCPU software TLB caches it under that contract.
func (p *PhysMem) FrameRef(hpa HPA) (*Frame, error) {
	return p.frame(hpa)
}

// WriteFrame copies b to off in f, a frame resolved from p (the write must
// stay inside the frame). It is the one place that decides how a write
// lands: in place in a private page, in the sparse buffer, or in a page
// materialized for it. A shared (ro) page, and a write the buffer cannot
// take, go through Materialize, which copies or builds the page.
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
	if i == len(f.sw) {
		if i == cap(f.sw) {
			p.carveSparse(f)
		}
		f.sw = append(f.sw, sparseWrite{off: uint16(off), n: uint16(len(b))})
	}
	copy(f.sw[i].val[:], b)
}

// WriteShared lands win[off:off+n] in f as WriteFrame does. win is one
// page of host memory that nothing writes while a frame may hold it. When
// f is sparse and its bytes outside the write already equal win's, f drops
// its buffer and takes win itself as its page, marked ro like a page a
// chunk copy shares with a Snapshot: the write copies nothing, and the
// next write to f copies the page (Materialize). The bytes outside are
// compared only when they fit the sparse buffer's reach.
func (p *PhysMem) WriteShared(f *Frame, off uint64, n int, win []byte) {
	if f.data == nil && PageSize-n <= sparseWritesMax*sparseWriteBytes && f.matchesOutside(win, off, n) {
		f.data, f.sw, f.ro = (*[PageSize]byte)(win), nil, true
		return
	}
	p.WriteFrame(f, off, win[off:off+uint64(n)])
}

// carveSparse moves f's write buffer to one carved from the buffer slab,
// holding a copy of its entries and room for the one an appending write
// needs, so that the append allocates nothing.
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
}

// Materialize builds (if needed) and returns the frame's private backing
// array, replaying any buffered sparse writes into the pre-zeroed array. A
// shared (ro) frame gets a fresh copy of its shared page here.
func (p *PhysMem) Materialize(f *Frame) *[PageSize]byte {
	if f.data != nil && !f.ro {
		return f.data
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.slab) == 0 {
		p.slabLen = min(max(2*p.slabLen, 1), slabFrames)
		p.slab = make([][PageSize]byte, p.slabLen)
	}
	d := &p.slab[0]
	p.slab = p.slab[1:]
	if f.data != nil {
		// Shared materialized page: diverge onto a private copy.
		*d = *f.data
	}
	for i := range f.sw {
		w := &f.sw[i]
		copy(d[w.off:], w.val[:w.n])
	}
	f.sw = nil
	f.data = d
	f.ro = false
	return d
}

// frame returns the frame containing hpa: from the directory without a
// lock when its chunk is p's own, else under mu through ownFrameLocked.
func (p *PhysMem) frame(hpa HPA) (*Frame, error) {
	idx := hpa.Page()
	if d := p.dir.Load(); d != nil && idx/chunkFrames < uint64(len(*d)) {
		if c := (*d)[idx/chunkFrames].Load(); c != nil && !c.frozen && c.frames[idx%chunkFrames].used {
			return &c.frames[idx%chunkFrames], nil
		}
	}
	p.mu.Lock()
	f := p.ownFrameLocked(hpa)
	p.mu.Unlock()
	if f == nil {
		return nil, fmt.Errorf("%w: %v", ErrUnmappedHPA, hpa)
	}
	return f, nil
}

// ownFrameLocked returns the allocated frame at hpa in a chunk p owns, or nil
// when no frame is allocated there. Caller holds p.mu.
func (p *PhysMem) ownFrameLocked(hpa HPA) *Frame {
	if c := p.ownLocked(hpa.Page(), false); c != nil && c.frames[hpa.Page()%chunkFrames].used {
		return &c.frames[hpa.Page()%chunkFrames]
	}
	return nil
}

// ownLocked returns the chunk holding host frame number idx, copying it
// first if it is frozen. With grow set it extends the directory and
// allocates the chunk as needed; without, it returns nil where there is no
// chunk. A changed entry is published with an atomic store, after the
// chunk is complete, for the lock-free lookups in frame. Caller holds p.mu.
func (p *PhysMem) ownLocked(idx uint64, grow bool) *chunk {
	ci := idx / chunkFrames
	d := p.dir.Load()
	if d == nil || ci >= uint64(len(*d)) {
		if !grow {
			return nil
		}
		nd := make([]atomic.Pointer[chunk], 2*ci+1)
		if d != nil {
			for i := range *d {
				nd[i].Store((*d)[i].Load())
			}
		}
		p.dir.Store(&nd)
		d = &nd
	}
	c := (*d)[ci].Load()
	switch {
	case c == nil && grow:
		c = new(chunk)
	case c != nil && c.frozen:
		c = c.clone()
	default:
		return c
	}
	(*d)[ci].Store(c)
	return c
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
	p.dir.Store(nil)
	p.slab = nil
	p.slabLen = 0
	p.swslab = nil
	p.live = 0
	p.free = nil
	p.next = PageSize
	p.epoch.Add(1)
}
