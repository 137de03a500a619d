// Package ringbuf implements the single-producer single-consumer lock-free
// ring buffer that OoH shares between producer and consumer domains:
//
//   - SPML: the hypervisor (producer, on PML-buffer-full vmexits and on
//     disable_logging hypercalls) and the guest OoH module (consumer);
//   - EPML: the guest OoH module's self-IPI handler (producer) and the
//     userspace OoH library (consumer).
//
// Entries are uint64 addresses (GPAs for SPML, GVAs for EPML). The ring is
// wait-free for both sides: Push and PushBatch never block (they report
// failure when the ring is full, which models dirty-address loss that the
// completeness tests must prove cannot happen under the configured sizes),
// Pop reports emptiness. A PML buffer drain hands the ring its entries as
// one PushBatch, which publishes them with one tail store.
//
// A ring is sized for the worst case but its memory follows use: the
// backing is allocated in 64 KiB chunks, each on the first push into it,
// so a session that logs a few thousand pages never pays for the capacity
// it does not reach.
package ringbuf

import (
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"
)

// chunkEntries is the size of one backing allocation: 64 KiB of entries.
const chunkEntries = 64 << 10 / 8

// Ring is a fixed-capacity SPSC ring of uint64 entries. Capacity is always
// a power of two. One goroutine may Push while another Pops concurrently.
type Ring struct {
	// chunks holds the backing, 1<<chunkShift entries per chunk (64 KiB,
	// or the whole ring if that is smaller), each nil until the producer
	// first pushes into it. The producer stores a chunk before it
	// publishes the tail that covers it and never stores it again, so the
	// consumer, which reads only below the tail it loaded, always finds
	// the chunk it reads from allocated.
	chunks     [][]uint64
	chunkShift uint
	mask       uint64
	head       atomic.Uint64 // next slot to pop
	tail       atomic.Uint64 // next slot to push
	drop       atomic.Uint64 // entries rejected because the ring was full
}

// New returns a ring holding up to capacity entries. Capacity is rounded up
// to the next power of two; it must be at least 1. New allocates no entry
// storage: each chunk of it comes with the first push into it.
func New(capacity int) *Ring {
	if capacity < 1 {
		panic(fmt.Sprintf("ringbuf: invalid capacity %d", capacity))
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	chunkLen := min(n, chunkEntries)
	return &Ring{
		chunks:     make([][]uint64, n/chunkLen),
		chunkShift: uint(bits.TrailingZeros(uint(chunkLen))),
		mask:       uint64(n - 1),
	}
}

// Cap returns the ring's capacity.
func (r *Ring) Cap() int { return int(r.mask + 1) }

// Len returns the number of entries currently buffered, exact at the
// instant tail is loaded. head is loaded before tail, so head never
// overtakes the observed tail and the subtraction cannot underflow; it is
// loaded again after, because a concurrent Pop between the loads pairs a
// stale head with a newer tail - an overcount that can exceed Cap once the
// producer refills the ring. head only moves forward, so an unchanged
// re-read proves it held that value when tail was loaded.
func (r *Ring) Len() int {
	for {
		head := r.head.Load()
		tail := r.tail.Load()
		if r.head.Load() == head {
			return int(tail - head)
		}
	}
}

// Push appends v. It returns false (and counts a drop) if the ring is full.
func (r *Ring) Push(v uint64) bool { return r.PushBatch([]uint64{v}) == 1 }

// PushBatch appends as many of vs, in order, as the ring has room for,
// counts the rest as drops and returns how many it appended: what len(vs)
// Push calls with no Pop between them do, but with one tail store, so the
// consumer sees the whole batch at once.
func (r *Ring) PushBatch(vs []uint64) int {
	tail := r.tail.Load()
	n := min(uint64(len(vs)), r.mask+1-(tail-r.head.Load()))
	for i := uint64(0); i < n; {
		j := (tail + i) & r.mask
		c := r.chunks[j>>r.chunkShift]
		if c == nil {
			c = make([]uint64, 1<<r.chunkShift)
			r.chunks[j>>r.chunkShift] = c
		}
		i += uint64(copy(c[j&(1<<r.chunkShift-1):], vs[i:n]))
	}
	if n < uint64(len(vs)) {
		r.drop.Add(uint64(len(vs)) - n)
	}
	r.tail.Store(tail + n)
	return int(n)
}

// Pop removes and returns the oldest entry. ok is false if the ring is empty.
func (r *Ring) Pop() (v uint64, ok bool) {
	head := r.head.Load()
	if head == r.tail.Load() {
		return 0, false
	}
	i := head & r.mask
	v = r.chunks[i>>r.chunkShift][i&(1<<r.chunkShift-1)]
	r.head.Store(head + 1)
	return v, true
}

// Drain pops the entries buffered at the time of the call, appends them to
// dst and returns the extended slice.
func (r *Ring) Drain(dst []uint64) []uint64 {
	head, tail := r.head.Load(), r.tail.Load()
	dst = slices.Grow(dst, int(tail-head))
	for head != tail {
		i := head & r.mask
		c := r.chunks[i>>r.chunkShift][i&(1<<r.chunkShift-1):]
		c = c[:min(uint64(len(c)), tail-head)]
		dst = append(dst, c...)
		head += uint64(len(c))
	}
	r.head.Store(head)
	return dst
}

// Dropped reports how many pushes were rejected because the ring was full.
func (r *Ring) Dropped() uint64 { return r.drop.Load() }

// Reset empties the ring and clears the drop counter. It must not be called
// concurrently with Push or Pop.
func (r *Ring) Reset() {
	r.head.Store(0)
	r.tail.Store(0)
	r.drop.Store(0)
}
