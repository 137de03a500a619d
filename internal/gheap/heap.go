// Package gheap is a page-backed heap allocator inside a guest process's
// address space. The tkrzw-style key-value engines, the Boehm-style GC and
// several Phoenix kernels allocate their working memory from it, so their
// stores and loads flow through the simulated MMU and are visible to every
// dirty page tracking technique.
package gheap

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/guestos"
	"repro/internal/mem"
)

// Errors returned by the heap.
var (
	ErrOutOfHeap   = errors.New("gheap: out of heap space")
	ErrBadFree     = errors.New("gheap: free of unallocated block")
	ErrSizeTooBig  = errors.New("gheap: allocation exceeds arena size")
	ErrZeroSize    = errors.New("gheap: zero-size allocation")
	ErrOutOfBounds = errors.New("gheap: access outside allocated block")
)

// align rounds n up to 8 bytes, the heap's allocation granularity.
func align(n uint64) uint64 { return (n + 7) &^ 7 }

// Block index geometry. Every 8-byte slot of the arena has a start bit,
// set while a live block begins there, and a mark bit beside it for the
// collector. The bits are kept in chunks that each cover 256 KiB of
// arena; a chunk is allocated when the first block starting in it is.
const (
	slotShift       = 3                         // 8-byte slots
	chunkShift      = 18                        // 256 KiB of arena per chunk
	chunkSlotsShift = chunkShift - slotShift    // slots per chunk, log2
	chunkWords      = 1 << chunkSlotsShift / 64 // bitmap words per chunk
)

// indexChunk holds the start and mark bits of one chunk: bit i of word w
// stands for the chunk's slot 64*w+i.
type indexChunk struct {
	start [chunkWords]uint64
	mark  [chunkWords]uint64
}

// Heap is a first-fit free-list allocator over one mmapped arena. It is
// not safe for concurrent use (one guest process, one vCPU).
//
// Live blocks and free spans tile the arena: they are disjoint, each is
// non-empty and 8-byte aligned, and together they cover it. The heap
// therefore stores no block sizes. It keeps the sorted free list and one
// start bit per slot, and a block ends where the next block or the next
// free span begins, whichever comes first.
type Heap struct {
	Proc   *guestos.Process
	Region guestos.Region

	// free list, sorted by address, coalesced on free.
	free []span
	// index holds the start and mark bits, one chunk per 256 KiB of
	// arena, nil until a block starts in that chunk.
	index []*indexChunk

	blocks    int    // live blocks
	allocated uint64 // live bytes
	peak      uint64
}

type span struct {
	start mem.GVA
	size  uint64
}

// New carves a heap of the given size (rounded to pages) out of the
// process's address space. When eager is true the arena is pre-faulted.
func New(proc *guestos.Process, size uint64, eager bool) (*Heap, error) {
	region, err := proc.Mmap(size, eager)
	if err != nil {
		return nil, err
	}
	chunks := (region.Size() + 1<<chunkShift - 1) >> chunkShift
	return &Heap{
		Proc:   proc,
		Region: region,
		free:   []span{{start: region.Start, size: region.Size()}},
		index:  make([]*indexChunk, chunks),
	}, nil
}

// Alloc returns the address of a fresh block of at least size bytes.
func (h *Heap) Alloc(size uint64) (mem.GVA, error) {
	if size == 0 {
		return 0, ErrZeroSize
	}
	// Compare before aligning: align wraps sizes near 1<<64 to 0. The
	// arena is page-sized, so an aligned size that fits still fits.
	if size > h.Region.Size() {
		return 0, fmt.Errorf("%w: %d", ErrSizeTooBig, size)
	}
	size = align(size)
	for i, s := range h.free {
		if s.size < size {
			continue
		}
		addr := s.start
		if s.size == size {
			h.free = append(h.free[:i], h.free[i+1:]...)
		} else {
			h.free[i] = span{start: s.start.Add(size), size: s.size - size}
		}
		if ci := h.slot(addr) >> chunkSlotsShift; h.index[ci] == nil {
			h.index[ci] = new(indexChunk)
		}
		c, w, m, _ := h.bit(addr)
		c.start[w] |= m
		h.blocks++
		h.allocated += size
		if h.allocated > h.peak {
			h.peak = h.allocated
		}
		return addr, nil
	}
	return 0, fmt.Errorf("%w: need %d, %d live", ErrOutOfHeap, size, h.allocated)
}

// Free releases the block at addr.
func (h *Heap) Free(addr mem.GVA) error {
	c, w, m, ok := h.bit(addr)
	if !ok || c.start[w]&m == 0 {
		return fmt.Errorf("%w: %v", ErrBadFree, addr)
	}
	size := uint64(h.blockEnd(addr) - addr)
	c.start[w] &^= m
	c.mark[w] &^= m
	h.blocks--
	h.allocated -= size
	h.insertFree(span{start: addr, size: size})
	return nil
}

// freeIndex returns the index of the first free span at or above addr.
func (h *Heap) freeIndex(addr mem.GVA) int {
	lo, hi := 0, len(h.free)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.free[mid].start < addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insertFree inserts a span keeping the list sorted and coalesced.
func (h *Heap) insertFree(s span) {
	lo := h.freeIndex(s.start)
	h.free = append(h.free, span{})
	copy(h.free[lo+1:], h.free[lo:])
	h.free[lo] = s
	// Coalesce with successor, then predecessor.
	if lo+1 < len(h.free) && h.free[lo].start.Add(h.free[lo].size) == h.free[lo+1].start {
		h.free[lo].size += h.free[lo+1].size
		h.free = append(h.free[:lo+1], h.free[lo+2:]...)
	}
	if lo > 0 && h.free[lo-1].start.Add(h.free[lo-1].size) == h.free[lo].start {
		h.free[lo-1].size += h.free[lo].size
		h.free = append(h.free[:lo], h.free[lo+1:]...)
	}
}

// slot returns the arena slot of an in-arena address.
func (h *Heap) slot(addr mem.GVA) uint64 { return uint64(addr-h.Region.Start) >> slotShift }

// bit locates the start and mark bits of the slot at addr. ok is false
// when addr is outside the arena, not 8-byte aligned, or in a chunk no
// block has started in.
func (h *Heap) bit(addr mem.GVA) (c *indexChunk, word int, mask uint64, ok bool) {
	if addr < h.Region.Start || addr >= h.Region.End || addr%8 != 0 {
		return nil, 0, 0, false
	}
	sl := h.slot(addr)
	c = h.index[sl>>chunkSlotsShift]
	return c, int(sl >> 6 % chunkWords), 1 << (sl % 64), c != nil
}

// Contains reports whether a live block starts at addr.
func (h *Heap) Contains(addr mem.GVA) bool {
	c, w, m, ok := h.bit(addr)
	return ok && c.start[w]&m != 0
}

// Mark sets the mark bit of the live block at addr and reports whether
// it was clear: false when addr is no live block or is marked already.
// Free clears a block's mark bit, so a new block starts unmarked.
func (h *Heap) Mark(addr mem.GVA) bool {
	c, w, m, ok := h.bit(addr)
	if !ok || c.start[w]&m == 0 || c.mark[w]&m != 0 {
		return false
	}
	c.mark[w] |= m
	return true
}

// ClearMarks clears every block's mark bit.
func (h *Heap) ClearMarks() {
	for _, c := range h.index {
		if c != nil {
			clear(c.mark[:])
		}
	}
}

// blockEnd returns the end of the live block at addr: where the next
// block or the next free span begins, whichever comes first.
func (h *Heap) blockEnd(addr mem.GVA) mem.GVA {
	end := h.Region.End
	if i := h.freeIndex(addr); i < len(h.free) {
		end = h.free[i].start
	}
	// Scan the start bits of the slots after addr, up to end.
	sl, last := h.slot(addr)+1, h.slot(end)
	for sl < last {
		c := h.index[sl>>chunkSlotsShift]
		if c == nil {
			sl = (sl>>chunkSlotsShift + 1) << chunkSlotsShift
			continue
		}
		if word := c.start[sl>>6%chunkWords] >> (sl % 64); word != 0 {
			sl += uint64(bits.TrailingZeros64(word))
			break
		}
		sl = (sl | 63) + 1
	}
	if sl < last {
		return h.Region.Start.Add(sl << slotShift)
	}
	return end
}

// BlockSize returns the size of the allocated block at addr.
func (h *Heap) BlockSize(addr mem.GVA) (uint64, bool) {
	if !h.Contains(addr) {
		return 0, false
	}
	return uint64(h.blockEnd(addr) - addr), true
}

// Blocks calls fn for every live block in ascending address order, with
// its mark bit, until fn returns false. fn must not allocate or free.
func (h *Heap) Blocks(fn func(addr mem.GVA, marked bool) bool) {
	for ci, c := range h.index {
		if c == nil {
			continue
		}
		for w := range c.start {
			for word := c.start[w]; word != 0; word &= word - 1 {
				b := bits.TrailingZeros64(word)
				sl := uint64(ci)<<chunkSlotsShift | uint64(w)<<6 | uint64(b)
				if !fn(h.Region.Start.Add(sl<<slotShift), c.mark[w]&(1<<b) != 0) {
					return
				}
			}
		}
	}
}

// Live returns the number of live blocks and bytes.
func (h *Heap) Live() (blocks int, bytes uint64) {
	return h.blocks, h.allocated
}

// Peak returns the peak live bytes.
func (h *Heap) Peak() uint64 { return h.peak }

// FreeBytes returns the total free space.
func (h *Heap) FreeBytes() uint64 {
	var total uint64
	for _, s := range h.free {
		total += s.size
	}
	return total
}

// checkBounds validates an access against a block.
func (h *Heap) checkBounds(addr mem.GVA, off, n uint64) (mem.GVA, error) {
	// Fast path: the access is within the arena. Block-precise checks
	// would require a lookup per access; bounds vs the arena suffice for
	// catching workload bugs.
	target := addr.Add(off)
	if target < h.Region.Start || target.Add(n) > h.Region.End {
		return 0, fmt.Errorf("%w: %v+%d (%d bytes)", ErrOutOfBounds, addr, off, n)
	}
	return target, nil
}

// WriteU64 stores v at block addr + off.
func (h *Heap) WriteU64(addr mem.GVA, off uint64, v uint64) error {
	target, err := h.checkBounds(addr, off, 8)
	if err != nil {
		return err
	}
	return h.Proc.WriteU64(target, v)
}

// ReadU64 loads the word at block addr + off.
func (h *Heap) ReadU64(addr mem.GVA, off uint64) (uint64, error) {
	target, err := h.checkBounds(addr, off, 8)
	if err != nil {
		return 0, err
	}
	return h.Proc.ReadU64(target)
}

// WriteBytes stores b at block addr + off.
func (h *Heap) WriteBytes(addr mem.GVA, off uint64, b []byte) error {
	target, err := h.checkBounds(addr, off, uint64(len(b)))
	if err != nil {
		return err
	}
	return h.Proc.Write(target, b)
}

// ReadBytes loads len(b) bytes from block addr + off.
func (h *Heap) ReadBytes(addr mem.GVA, off uint64, b []byte) error {
	target, err := h.checkBounds(addr, off, uint64(len(b)))
	if err != nil {
		return err
	}
	return h.Proc.Read(target, b)
}
