package gheap

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/mem"
)

// Opcodes of the FuzzHeap operation stream. Each opcode byte is followed
// by its operand bytes; a missing byte reads as zero and the stream ends
// when the input does.
const (
	hopAlloc      = iota // mode, lo, hi (see fuzzSize)
	hopFree              // live block
	hopMark              // live block, or with bit 7 set a non-block address
	hopClearMarks        //
	numHeapOps
)

// fuzzArena spans four full index chunks and part of a fifth.
const fuzzArena = 4<<chunkShift + 3*mem.PageSize

// fuzzSize decodes an allocation size: small, up to a page, up to twice
// an index chunk, or around the arena size and near 1<<64.
func fuzzSize(mode, v int) uint64 {
	switch mode % 4 {
	case 0:
		return uint64(1 + v%64)
	case 1:
		return uint64(v % (mem.PageSize + 1)) // 0 is refused
	case 2:
		return uint64(v) * 8 // up to 512 KiB; 0 is refused
	default:
		if v&0x8000 != 0 {
			return fuzzArena - 8 + uint64(v&15)
		}
		return math.MaxUint64 - uint64(v)
	}
}

// heapModel is the reference heap: live block sizes and mark bits by
// address, plus the live addresses in allocation order for operand
// picking.
type heapModel struct {
	size   map[mem.GVA]uint64
	marked map[mem.GVA]bool
	order  []mem.GVA
	freed  []mem.GVA // freed addresses, most recent last
}

// firstFit returns where a first-fit allocator places an aligned block
// of n bytes: the start of the lowest gap between live blocks that holds
// it.
func (m *heapModel) firstFit(start, end mem.GVA, n uint64) (mem.GVA, bool) {
	addrs := make([]mem.GVA, 0, len(m.size))
	for a := range m.size {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	gap := start
	for _, a := range addrs {
		if uint64(a-gap) >= n {
			return gap, true
		}
		gap = a.Add(m.size[a])
	}
	return gap, uint64(end-gap) >= n
}

// FuzzHeap drives a heap through a decoded stream of allocations, frees
// and mark operations, checking after every step against a model that
// places blocks first-fit in the gaps between live blocks: each live
// block's size, the live and free totals, that Blocks visits exactly the
// live set in ascending address order with its mark bits, and that
// interior, misaligned, out-of-arena and freed addresses are no blocks.
func FuzzHeap(f *testing.F) {
	alloc := func(mode, v int) []byte { return []byte{hopAlloc, byte(mode), byte(v), byte(v >> 8)} }
	free := func(i byte) []byte { return []byte{hopFree, i} }
	seeds := [][]byte{
		// A size whose alignment wraps to 0, then a small block.
		cat(alloc(3, 0), alloc(0, 7)),
		// Free the middle of three blocks last: it coalesces with free
		// space on both sides.
		cat(alloc(1, 100), alloc(1, 200), alloc(1, 300), alloc(0, 5),
			free(0), free(1), free(0)),
		// Fill the arena exactly, then free the block next to its end.
		cat(alloc(2, 65535), alloc(2, 65535), alloc(2, (fuzzArena-2*65535*8)/8),
			alloc(0, 0), free(2), alloc(0, 3)),
		// Blocks straddling chunks, marked, one freed and its address
		// reallocated unmarked.
		cat(alloc(2, 40000), alloc(1, 9), alloc(2, 33000), []byte{hopMark, 0, hopMark, 1, hopMark, 2, hopMark, 0x85},
			free(1), alloc(0, 1), []byte{hopClearMarks, hopMark, 1}),
		// Zero sizes and sizes around the arena's.
		cat(alloc(1, 0), alloc(2, 0), alloc(3, 0x8008), alloc(3, 0x8007), alloc(3, 0x8009)),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := bytes.NewReader(data)
		next := func() int {
			b, _ := in.ReadByte()
			return int(b)
		}
		h := newHeap(t, fuzzArena)
		if h.Region.Size() != fuzzArena {
			t.Fatalf("arena is %d bytes, want %d", h.Region.Size(), fuzzArena)
		}
		m := &heapModel{size: map[mem.GVA]uint64{}, marked: map[mem.GVA]bool{}}
		for op := 0; op < 256 && in.Len() > 0; op++ {
			switch next() % numHeapOps {
			case hopAlloc:
				mode := next()
				size := fuzzSize(mode, next()|next()<<8)
				addr, err := h.Alloc(size)
				switch {
				case size == 0:
					if !errors.Is(err, ErrZeroSize) {
						t.Fatalf("Alloc(0): %v, %v", addr, err)
					}
				case size > h.Region.Size():
					if !errors.Is(err, ErrSizeTooBig) {
						t.Fatalf("Alloc(%d): %v, %v; want ErrSizeTooBig", size, addr, err)
					}
				default:
					want, fits := m.firstFit(h.Region.Start, h.Region.End, align(size))
					if !fits {
						if !errors.Is(err, ErrOutOfHeap) {
							t.Fatalf("Alloc(%d): %v, %v; no gap fits", size, addr, err)
						}
						break
					}
					if err != nil || addr != want {
						t.Fatalf("Alloc(%d) = %v, %v; first fit is %v", size, addr, err, want)
					}
					m.size[addr] = align(size)
					m.order = append(m.order, addr)
				}
			case hopFree:
				i := next()
				if len(m.order) == 0 {
					break
				}
				i %= len(m.order)
				addr := m.order[i]
				if err := h.Free(addr); err != nil {
					t.Fatalf("Free(%v): %v", addr, err)
				}
				delete(m.size, addr)
				delete(m.marked, addr)
				m.order = append(m.order[:i], m.order[i+1:]...)
				m.freed = append(m.freed, addr)
			case hopMark:
				i := next()
				if i&0x80 != 0 || len(m.order) == 0 {
					// Derive an address near a live block or the arena
					// start; it must only be marked if it is a block.
					base := h.Region.Start
					if len(m.order) > 0 {
						base = m.order[i%len(m.order)]
					}
					addr := base.Add(uint64(i&0x7F) % 24)
					_, live := m.size[addr]
					want := live && !m.marked[addr]
					if got := h.Mark(addr); got != want {
						t.Fatalf("Mark(%v) = %v, want %v", addr, got, want)
					}
					if live {
						m.marked[addr] = true
					}
					break
				}
				addr := m.order[i%len(m.order)]
				if got := h.Mark(addr); got == m.marked[addr] {
					t.Fatalf("Mark(%v) = %v, already marked %v", addr, got, m.marked[addr])
				}
				m.marked[addr] = true
			case hopClearMarks:
				h.ClearMarks()
				clear(m.marked)
			}
			checkHeap(t, h, m)
		}
	})
}

// checkHeap compares h with the model.
func checkHeap(t *testing.T, h *Heap, m *heapModel) {
	t.Helper()
	var live uint64
	for addr, size := range m.size {
		live += size
		if got, ok := h.BlockSize(addr); !ok || got != size {
			t.Fatalf("BlockSize(%v) = %d, %v; want %d", addr, got, ok, size)
		}
		if !h.Contains(addr) {
			t.Fatalf("Contains(%v) = false for a live block", addr)
		}
		notBlock(t, h, m, addr.Add(1))
		notBlock(t, h, m, addr.Add(7))
		notBlock(t, h, m, addr.Add(size/2&^7))
		notBlock(t, h, m, addr.Add(size-8))
	}
	if n, bytes := h.Live(); n != len(m.size) || bytes != live {
		t.Fatalf("Live() = %d, %d; want %d, %d", n, bytes, len(m.size), live)
	}
	if free := h.FreeBytes(); free != h.Region.Size()-live {
		t.Fatalf("FreeBytes() = %d, want %d", free, h.Region.Size()-live)
	}
	seen := 0
	prev := mem.GVA(0)
	h.Blocks(func(addr mem.GVA, marked bool) bool {
		if seen > 0 && addr <= prev {
			t.Fatalf("Blocks visited %v after %v", addr, prev)
		}
		if _, live := m.size[addr]; !live || marked != m.marked[addr] {
			t.Fatalf("Blocks visited %v marked %v; model: live %v, marked %v", addr, marked, live, m.marked[addr])
		}
		seen++
		prev = addr
		return true
	})
	if seen != len(m.size) {
		t.Fatalf("Blocks visited %d blocks, want %d", seen, len(m.size))
	}
	for _, addr := range []mem.GVA{0, h.Region.Start - 8, h.Region.End, h.Region.End + 8} {
		notBlock(t, h, m, addr)
	}
	for _, addr := range m.freed[max(0, len(m.freed)-8):] {
		notBlock(t, h, m, addr)
	}
}

// notBlock checks that addr, unless the model holds a live block there,
// is no block: not contained, no size, refused by Free and Mark.
func notBlock(t *testing.T, h *Heap, m *heapModel, addr mem.GVA) {
	t.Helper()
	if _, live := m.size[addr]; live {
		return
	}
	if h.Contains(addr) {
		t.Fatalf("Contains(%v) = true for no block", addr)
	}
	if size, ok := h.BlockSize(addr); ok {
		t.Fatalf("BlockSize(%v) = %d for no block", addr, size)
	}
	if h.Mark(addr) {
		t.Fatalf("Mark(%v) = true for no block", addr)
	}
	if err := h.Free(addr); !errors.Is(err, ErrBadFree) {
		t.Fatalf("Free(%v) = %v, want ErrBadFree", addr, err)
	}
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
