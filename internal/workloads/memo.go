package workloads

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
	"repro/internal/simcache"
)

// The input memo. The paper's Boehm and CRIU grids run each app on one
// input under every tracking technique, and Run repeats a pass over an
// input that Setup wrote once, so the same input is generated and
// analysed again and again on the host. The memo keeps one copy per
// process of what that host arithmetic produced: a workload's generated
// input (string-match's text) and what one pass computes from it (a
// pass-pure analysis: string-match's matches, histogram's bin counts,
// PCA's means and covariance band). Only host arithmetic is shared. A hit
// replays in guest memory exactly what a fresh instance does - the same
// writeChunk/readChunk sequence, so the same virtual time and counters -
// and leaves the caller's RNG where generating would have left it.
//
// The memo holds at most one input per workload name, which bounds its
// memory in long processes; a parallel sweep that mixes sizes of one
// workload may replace an entry between cells, which costs a regeneration
// and never a wrong result. simcache.DisableAll turns it off with the
// other caches: every Setup then generates and every Run analyses afresh.

// inputKey identifies one workload input.
type inputKey struct {
	name string  // Workload.Name
	dims [2]int  // the input's dimensions: file bytes, or rows and columns
	rng  sim.RNG // the generator at Setup
}

// memoEntry is one memoized input: I is what generating it produced, A
// what one pass computes from it. Every instance and sweep cell with the
// same key shares the entry: the input is generated once, under once, and
// the first instance to complete an analysis publishes it.
type memoEntry[I, A any] struct {
	key   inputKey
	once  sync.Once
	input I
	done  atomic.Pointer[A]
}

// inputs maps a workload name to its one memoized input.
var inputs = struct {
	sync.Mutex
	byName map[string]any
}{byName: map[string]any{}}

// memoFor returns the shared entry for key, replacing any other input of
// key.name, or nil when the workload memo is off. Every method of a nil
// entry computes afresh and keeps nothing.
func memoFor[I, A any](key inputKey) *memoEntry[I, A] {
	if !simcache.Enabled() {
		return nil
	}
	inputs.Lock()
	defer inputs.Unlock()
	if e, ok := inputs.byName[key.name].(*memoEntry[I, A]); ok && e.key == key {
		return e
	}
	e := &memoEntry[I, A]{key: key}
	inputs.byName[key.name] = e
	return e
}

// generate returns the entry's input, calling gen for it the first time.
func (e *memoEntry[I, A]) generate(gen func() I) I {
	if e == nil {
		return gen()
	}
	e.once.Do(func() { e.input = gen() })
	return e.input
}

// analysis returns the published analysis of the input, or nil.
func (e *memoEntry[I, A]) analysis() *A {
	if e == nil {
		return nil
	}
	return e.done.Load()
}

// publish offers a as the input's analysis; the first one offered stays.
func (e *memoEntry[I, A]) publish(a *A) {
	if e != nil {
		e.done.CompareAndSwap(nil, a)
	}
}

// --- packed text -------------------------------------------------------------

// packedText holds lowercase letters five bits each: every group of eight
// letters is one 40-bit little-endian word (letter i in bits 5i..5i+4),
// stored in five bytes. Three bytes of slack at the end let the decoder
// load each group as a 64-bit word.
type packedText []byte

// newPackedText returns room for n letters.
func newPackedText(n uint64) packedText { return make(packedText, (n+7)/8*5+3) }

// letterPairs decodes ten packed bits, two letters, into their two bytes,
// the first letter low.
var letterPairs = func() (t [1 << 10]uint16) {
	for i := range t {
		t[i] = uint16('a'+i&31) | uint16('a'+i>>5)<<8
	}
	return t
}()

// pack stores letters (each in [0, 26), the value 'a' is added to) from
// letter offset at, which must be a multiple of eight.
func (p packedText) pack(at uint64, letters []byte) {
	g := at / 8 * 5
	for len(letters) > 0 {
		var v uint64
		if len(letters) >= 8 {
			v = binary.LittleEndian.Uint64(letters)
		} else {
			var tail [8]byte
			copy(tail[:], letters)
			v = binary.LittleEndian.Uint64(tail[:])
		}
		letters = letters[min(8, len(letters)):]
		// Gather eight 5-bit letters from byte lanes into 40 bits:
		// pairs into 10-bit lanes, quads into 20-bit lanes, then both
		// halves.
		v = v&0x001f001f001f001f | v>>3&0x03e003e003e003e0
		v = v&0x000003ff000003ff | v>>6&0x000ffc00000ffc00
		v = v&0xfffff | v>>12&0xfffff00000
		binary.LittleEndian.PutUint32(p[g:], uint32(v))
		p[g+4] = byte(v >> 32)
		g += 5
	}
}

// unpack writes the letters from offset at, a multiple of eight, into
// dst as bytes 'a'-'z', eight letters per table-decoded group.
func (p packedText) unpack(dst []byte, at uint64) {
	g := at / 8 * 5
	for len(dst) > 0 {
		v := binary.LittleEndian.Uint64(p[g:])
		v = uint64(letterPairs[v&1023]) | uint64(letterPairs[v>>10&1023])<<16 |
			uint64(letterPairs[v>>20&1023])<<32 | uint64(letterPairs[v>>30&1023])<<48
		if len(dst) < 8 {
			var word [8]byte
			binary.LittleEndian.PutUint64(word[:], v)
			copy(dst, word[:])
			return
		}
		binary.LittleEndian.PutUint64(dst, v)
		dst = dst[8:]
		g += 5
	}
}
