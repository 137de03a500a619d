package mem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// image reads back every allocated frame of p as a map keyed by HPA.
func image(t *testing.T, p *PhysMem, hpas []HPA) map[HPA][]byte {
	t.Helper()
	out := make(map[HPA][]byte, len(hpas))
	for _, hpa := range hpas {
		b, err := p.FrameBytes(hpa)
		if err != nil {
			t.Fatal(err)
		}
		out[hpa] = b
	}
	return out
}

// seed builds a PhysMem mixing sparse and materialized frames.
func seedMem(t *testing.T) (*PhysMem, []HPA) {
	t.Helper()
	p := NewPhysMem(0)
	var hpas []HPA
	for i := 0; i < 16; i++ {
		hpa, err := p.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		hpas = append(hpas, hpa)
		switch i % 3 {
		case 0: // sparse: a couple of small writes
			if err := p.WriteU64(hpa+8, uint64(i)*0x1111); err != nil {
				t.Fatal(err)
			}
			if err := p.WriteU64(hpa+256, uint64(i)); err != nil {
				t.Fatal(err)
			}
		case 1: // materialized: one large write
			big := make([]byte, 512)
			for j := range big {
				big[j] = byte(i + j)
			}
			if err := p.Write(hpa+1024, big); err != nil {
				t.Fatal(err)
			}
		// case 2: never written - implicit zeros
		default:
		}
	}
	return p, hpas
}

// TestSnapshotForkDivergence: writes in a fork never show through to the
// parent or the snapshot, and vice versa.
func TestSnapshotForkDivergence(t *testing.T) {
	p, hpas := seedMem(t)
	before := image(t, p, hpas)
	snap := p.CaptureSnapshot()

	fork := snap.NewPhysMem()
	if fork.FrameCount() != p.FrameCount() {
		t.Fatalf("fork frames = %d, want %d", fork.FrameCount(), p.FrameCount())
	}
	// Fork starts byte-identical.
	for hpa, want := range before {
		got, err := fork.FrameBytes(hpa)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("fork frame %v differs before divergence", hpa)
		}
	}
	// Diverge the fork on every frame: small write (sparse path) and a
	// large write (materialize path). Frames captured sparse or unwritten
	// take the small write into a private copy of their write buffer and
	// stay sparse; the large write then materializes them from that copy.
	for i, hpa := range hpas {
		if err := fork.WriteU64(hpa+16, 0xDEAD+uint64(i)); err != nil {
			t.Fatal(err)
		}
		f, err := fork.FrameRef(hpa)
		if err != nil {
			t.Fatal(err)
		}
		if sparse := i%3 != 1; sparse && f.Data() != nil {
			t.Fatalf("frame %d: 8-byte write to a shared sparse frame copied the page", i)
		}
		want := append([]byte(nil), before[hpa]...)
		binary.LittleEndian.PutUint64(want[16:], 0xDEAD+uint64(i))
		if i%2 == 0 {
			big := bytes.Repeat([]byte{0xAB}, 600)
			if err := fork.Write(hpa+2048, big); err != nil {
				t.Fatal(err)
			}
			if f.Data() == nil {
				t.Fatalf("frame %d: 600-byte write left the frame sparse", i)
			}
			copy(want[2048:], big)
		}
		if got, _ := fork.FrameBytes(hpa); !bytes.Equal(got, want) {
			t.Fatalf("frame %d: fork content wrong after divergence", i)
		}
	}
	// Diverge the parent differently.
	for _, hpa := range hpas {
		if err := p.WriteU64(hpa+32, 0xBEEF); err != nil {
			t.Fatal(err)
		}
	}
	// The fork sees its own writes, not the parent's; the parent sees its
	// own, not the fork's.
	for i, hpa := range hpas {
		fv, err := fork.ReadU64(hpa + 16)
		if err != nil || fv != 0xDEAD+uint64(i) {
			t.Fatalf("fork lost its write: %#x, %v", fv, err)
		}
		if v, _ := fork.ReadU64(hpa + 32); v == 0xBEEF {
			t.Fatal("parent write leaked into fork")
		}
		if v, _ := p.ReadU64(hpa + 16); v == 0xDEAD+uint64(i) {
			t.Fatal("fork write leaked into parent")
		}
	}
	// A second fork from the same snapshot still sees the capture image.
	fork2 := snap.NewPhysMem()
	for hpa, want := range before {
		got, err := fork2.FrameBytes(hpa)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("second fork sees divergence at %v", hpa)
		}
	}
}

// TestSnapshotConcurrentDivergence: VMs sharing one forked PhysMem diverge
// their own frames from separate goroutines; the buffer and page slabs
// they carve from are shared, so each carve must be exclusive.
func TestSnapshotConcurrentDivergence(t *testing.T) {
	const workers, perWorker = 4, 256
	src := NewPhysMem(0)
	hpas := make([]HPA, workers*perWorker)
	for i := range hpas {
		var err error
		if hpas[i], err = src.AllocFrame(); err != nil {
			t.Fatal(err)
		}
		if err := src.WriteU64(hpas[i]+8, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	fork := src.CaptureSnapshot().NewPhysMem()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(own []HPA) {
			defer wg.Done()
			for i, hpa := range own {
				fr, err := fork.FrameRef(hpa)
				if err != nil {
					t.Error(err)
					return
				}
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], uint64(hpa))
				fork.WriteFrame(fr, 16, b[:])
				if i%8 == 0 {
					fork.WriteFrame(fr, 1024, bytes.Repeat(b[:], 8))
				}
			}
		}(hpas[w*perWorker : (w+1)*perWorker])
	}
	wg.Wait()
	for i, hpa := range hpas {
		if v, _ := fork.ReadU64(hpa + 8); v != uint64(i) {
			t.Fatalf("frame %d lost its captured word: %d", i, v)
		}
		if v, _ := fork.ReadU64(hpa + 16); v != uint64(hpa) {
			t.Fatalf("frame %d holds %#x, want its own write %#x", i, v, uint64(hpa))
		}
		if i%perWorker%8 != 0 {
			continue
		}
		if v, _ := fork.ReadU64(hpa + 1024 + 56); v != uint64(hpa) {
			t.Fatalf("frame %d lost its large write: %#x", i, v)
		}
	}
}

// TestSnapshotRestoreRewinds: in-place restore discards divergence and
// bumps the invalidation epoch (never rewinding it).
func TestSnapshotRestoreRewinds(t *testing.T) {
	p, hpas := seedMem(t)
	before := image(t, p, hpas)
	snap := p.CaptureSnapshot()

	epoch0 := p.Epoch()
	// Diverge: writes, a free, and fresh allocations.
	if err := p.WriteU64(hpas[0]+64, 0xFEED); err != nil {
		t.Fatal(err)
	}
	if err := p.FreeFrame(hpas[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AllocFrame(); err != nil {
		t.Fatal(err)
	}

	p.RestoreSnapshot(snap)
	if e := p.Epoch(); e <= epoch0 {
		t.Fatalf("restore must advance the epoch: %d -> %d", epoch0, e)
	}
	for hpa, want := range before {
		got, err := p.FrameBytes(hpa)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("restore did not rewind frame %v", hpa)
		}
	}
	if p.FrameCount() != len(hpas) {
		t.Fatalf("restore frame count = %d, want %d", p.FrameCount(), len(hpas))
	}
	// Allocation state rewound too: the next two allocs must reproduce
	// what the capture-time allocator would have handed out.
	a1, err := p.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if int(a1.Page()) != len(hpas)+1 {
		t.Fatalf("post-restore alloc at %v, want dense continuation", a1)
	}
	// And the restored memory is writable (copy-on-write diverges again).
	if err := p.WriteU64(hpas[2]+8, 0xACE); err != nil {
		t.Fatal(err)
	}
	v, err := p.ReadU64(hpas[2] + 8)
	if err != nil || v != 0xACE {
		t.Fatalf("post-restore write: %#x, %v", v, err)
	}
}

// TestSnapshotSparseSharingSafety: the pathological sharing cases - exact
// sparse-rewrite and sparse-append after capture - must not mutate the
// shared buffer, and a fork diverges a shared sparse frame by copying its
// write buffer, not its page.
func TestSnapshotSparseSharingSafety(t *testing.T) {
	p := NewPhysMem(0)
	hpa, err := p.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WriteU64(hpa+8, 1); err != nil { // sparse write
		t.Fatal(err)
	}
	snap := p.CaptureSnapshot()

	// Exact rewrite of the buffered slot: before the ro flag this updated
	// the shared sparseWrite value in place.
	if err := p.WriteU64(hpa+8, 2); err != nil {
		t.Fatal(err)
	}
	// Append-style sparse write to another offset.
	if err := p.WriteU64(hpa+128, 3); err != nil {
		t.Fatal(err)
	}

	fork := snap.NewPhysMem()
	if v, _ := fork.ReadU64(hpa + 8); v != 1 {
		t.Fatalf("shared sparse buffer mutated: slot = %d, want 1", v)
	}
	if v, _ := fork.ReadU64(hpa + 128); v != 0 {
		t.Fatalf("sparse append leaked into snapshot: %d", v)
	}
	if v, _ := p.ReadU64(hpa + 8); v != 2 {
		t.Fatalf("parent lost its rewrite: %d", v)
	}

	// An 8-byte write in a fork leaves the frame sparse: the fork copies
	// the write buffer, not the page. Fill the buffer to capacity with
	// disjoint words; the snapshot and a sibling fork must not see them.
	f, err := fork.FrameRef(hpa)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, PageSize)
	binary.LittleEndian.PutUint64(want[8:], 1)
	for i := 0; i < sparseWritesMax; i++ {
		off := uint64(8 + 64*i)
		if err := fork.WriteU64(hpa+HPA(off), 0x100+uint64(i)); err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(want[off:], 0x100+uint64(i))
		if f.Data() != nil {
			t.Fatalf("word write %d to a shared sparse frame copied the page", i+1)
		}
	}
	sibling := snap.NewPhysMem()
	if v, _ := sibling.ReadU64(hpa + 8); v != 1 {
		t.Fatalf("fork divergence leaked into a sibling: slot = %d, want 1", v)
	}
	if v, _ := sibling.ReadU64(hpa + 72); v != 0 {
		t.Fatalf("fork append leaked into a sibling: %d", v)
	}
	// A 7th disjoint write overflows the private buffer and materializes.
	if err := fork.WriteU64(hpa+1024, 0x777); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(want[1024:], 0x777)
	if f.Data() == nil {
		t.Fatalf("frame still sparse after %d disjoint writes", sparseWritesMax+1)
	}
	if got, _ := fork.FrameBytes(hpa); !bytes.Equal(got, want) {
		t.Fatal("overflowing fork frame lost buffered content")
	}
	// A 64-byte write to the sibling's shared sparse frame materializes.
	big := bytes.Repeat([]byte{0x5A}, 64)
	if err := sibling.Write(hpa+2048, big); err != nil {
		t.Fatal(err)
	}
	sf, err := sibling.FrameRef(hpa)
	if err != nil {
		t.Fatal(err)
	}
	if sf.Data() == nil {
		t.Fatal("64-byte write left the shared frame sparse")
	}
	sibWant := make([]byte, PageSize)
	binary.LittleEndian.PutUint64(sibWant[8:], 1)
	copy(sibWant[2048:], big)
	if got, _ := sibling.FrameBytes(hpa); !bytes.Equal(got, sibWant) {
		t.Fatal("large write to a shared sparse frame lost content")
	}
	// The snapshot itself still holds the captured bytes.
	p.RestoreSnapshot(snap)
	if v, _ := p.ReadU64(hpa + 8); v != 1 {
		t.Fatalf("snapshot slot = %d after fork divergence, want 1", v)
	}
	if v, _ := p.ReadU64(hpa + 72); v != 0 {
		t.Fatalf("snapshot holds a fork's write: %d", v)
	}

	// Diverging many shared sparse frames allocates per slab, not per
	// frame: the private buffers are carved from one slab allocation.
	const frames = 1024
	src := NewPhysMem(0)
	hpas := make([]HPA, frames)
	for i := range hpas {
		if hpas[i], err = src.AllocFrame(); err != nil {
			t.Fatal(err)
		}
		if err := src.WriteU64(hpas[i]+8, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	wide := src.CaptureSnapshot()
	allocs := testing.AllocsPerRun(5, func() {
		fk := wide.NewPhysMem()
		for _, h := range hpas {
			if err := fk.WriteU64(h+16, 1); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > frames/64 {
		t.Fatalf("diverging %d shared sparse frames cost %.0f allocations, want at most %d",
			frames, allocs, frames/64)
	}
}

// chunkHarness drives PhysMems against cowModel images, the reference
// FuzzPhysMemCoW checks against, with any number of live frames.
type chunkHarness struct {
	t   *testing.T
	seq byte
}

func (h *chunkHarness) alloc(p *PhysMem, m *cowModel) HPA {
	h.t.Helper()
	hpa, err := p.AllocFrame()
	if err != nil {
		h.t.Fatal(err)
	}
	if _, dup := m.pages[hpa]; dup {
		h.t.Fatalf("alloc returned live frame %v", hpa)
	}
	m.pages[hpa] = [PageSize]byte{}
	m.live = append(m.live, hpa)
	return hpa
}

func (h *chunkHarness) free(p *PhysMem, m *cowModel, hpa HPA) {
	h.t.Helper()
	if err := p.FreeFrame(hpa); err != nil {
		h.t.Fatal(err)
	}
	delete(m.pages, hpa)
	m.live = slices.DeleteFunc(m.live, func(x HPA) bool { return x == hpa })
}

// write stores n bytes at off: up to 16 bytes is a buffered word, more
// materializes the page.
func (h *chunkHarness) write(p *PhysMem, m *cowModel, hpa HPA, off uint64, n int) {
	h.t.Helper()
	h.seq++
	b := bytes.Repeat([]byte{h.seq}, n)
	if err := p.Write(hpa+HPA(off), b); err != nil {
		h.t.Fatal(err)
	}
	pg := m.pages[hpa]
	copy(pg[off:], b)
	m.pages[hpa] = pg
}

func (h *chunkHarness) check(p *PhysMem, m cowModel) {
	h.t.Helper()
	if p.FrameCount() != len(m.live) {
		h.t.Fatalf("%d live frames, model has %d", p.FrameCount(), len(m.live))
	}
	for _, hpa := range m.live {
		checkFrame(h.t, p, m, hpa)
	}
}

// TestSnapshotAcrossChunks takes a memory past its first chunk, then
// captures, forks twice, writes, frees, re-allocates and restores, and
// checks every memory and snapshot against the flat model: a fork's
// AllocFrame lands both in a freed slot and past the source's last frame
// of a frozen, partly filled chunk, and a capture of a fork mixes chunks
// it copied with chunks still frozen from the first snapshot.
func TestSnapshotAcrossChunks(t *testing.T) {
	h := &chunkHarness{t: t}
	p, pm := NewPhysMem(0), cowModel{pages: map[HPA][PageSize]byte{}}
	for i := 0; i < chunkFrames+40; i++ {
		hpa := h.alloc(p, &pm)
		switch i % 4 {
		case 0:
			h.write(p, &pm, hpa, 8, 8)
		case 1:
			h.write(p, &pm, hpa, 64, 8)
			h.write(p, &pm, hpa, 128, 16)
		case 2:
			h.write(p, &pm, hpa, 1024, 600)
		}
	}
	if last := pm.live[len(pm.live)-1]; last.Page() < chunkFrames {
		t.Fatalf("last frame %v is still in the first chunk", last)
	}
	// Free slots in both chunks, so forks re-allocate into them.
	for _, i := range []int{5, 6, chunkFrames + 3} {
		h.free(p, &pm, pm.live[i])
	}
	epoch := p.Epoch()
	s1, s1m := p.CaptureSnapshot(), pm.clone()
	if p.Epoch() <= epoch {
		t.Fatal("CaptureSnapshot did not advance the epoch")
	}
	f1, f1m := s1.NewPhysMem(), s1m.clone()
	f2, f2m := s1.NewPhysMem(), s1m.clone()

	// Before f2 touches anything, it re-allocates the three freed slots
	// and takes new frames past the last one the source allocated: all
	// land in chunks still frozen.
	for i := 0; i < 6; i++ {
		hpa := h.alloc(f2, &f2m)
		h.write(f2, &f2m, hpa, 16, 8)
	}
	if hpa := f2m.live[len(f2m.live)-1]; hpa.Page()/chunkFrames != 1 || hpa < s1.next {
		t.Fatalf("f2's last allocation %v is not a fresh frame of the second chunk", hpa)
	}
	// Rewrite, append and materialize in both chunks of every memory.
	for _, i := range []int{0, 1, 2, 3, chunkFrames - 2, chunkFrames + 1, chunkFrames + 30} {
		h.write(f1, &f1m, f1m.live[i], 8, 8)
		h.write(f2, &f2m, f2m.live[i], 256, 8)
		h.write(p, &pm, pm.live[i], 2048, 100)
	}
	h.free(f1, &f1m, f1m.live[chunkFrames])
	h.free(f1, &f1m, f1m.live[10])
	// To a new fork of s1, the frames f2 allocated are still free, and
	// allocating them again hands out the same HPAs, zeroed.
	f4, f4m := s1.NewPhysMem(), s1m.clone()
	for _, hpa := range f2m.live[len(f2m.live)-6:] {
		if _, err := f4.FrameRef(hpa); !errors.Is(err, ErrUnmappedHPA) {
			t.Fatalf("frame %v that a sibling allocated resolves in a new fork: %v", hpa, err)
		}
		if got := h.alloc(f4, &f4m); got != hpa {
			t.Fatalf("new fork allocated %v, its sibling %v", got, hpa)
		}
	}
	for _, c := range []struct {
		p *PhysMem
		m cowModel
	}{{p, pm}, {f1, f1m}, {f2, f2m}, {f4, f4m}, {s1.NewPhysMem(), s1m}} {
		h.check(c.p, c.m)
	}

	// Capture f1 with one chunk copied and one still shared with s1.
	s2, s2m := f1.CaptureSnapshot(), f1m.clone()
	h.write(f1, &f1m, f1m.live[0], 8, 8)
	f3, f3m := s2.NewPhysMem(), s2m.clone()
	h.alloc(f3, &f3m)
	h.write(f3, &f3m, f3m.live[4], 8, 700)
	p.RestoreSnapshot(s2)
	pm = s2m.clone()
	h.write(p, &pm, pm.live[7], 8, 8)
	f2.RestoreSnapshot(s1)
	f2m = s1m.clone()
	for _, c := range []struct {
		p *PhysMem
		m cowModel
	}{{p, pm}, {f1, f1m}, {f2, f2m}, {f3, f3m}, {s1.NewPhysMem(), s1m}, {s2.NewPhysMem(), s2m}} {
		h.check(c.p, c.m)
	}
}

// TestSnapshotLookupsWhileAllocating runs lock-free frame lookups, reads
// and writes on one goroutine's frames of a fork while another
// goroutine's AllocFrame copies a frozen chunk and grows the chunk
// directory three times. Run with -race.
func TestSnapshotLookupsWhileAllocating(t *testing.T) {
	src := NewPhysMem(0)
	own := make([]HPA, 2*chunkFrames)
	for i := range own {
		var err error
		if own[i], err = src.AllocFrame(); err != nil {
			t.Fatal(err)
		}
		if err := src.WriteU64(own[i]+8, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	fork := src.CaptureSnapshot().NewPhysMem()
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i := 0; i < 16*chunkFrames; i++ {
			hpa, err := fork.AllocFrame()
			if err == nil {
				err = fork.WriteU64(hpa, uint64(hpa))
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for round := uint64(1); round == 1 || !done.Load(); round++ {
		for i, hpa := range own {
			f, err := fork.FrameRef(hpa)
			if err != nil {
				t.Fatal(err)
			}
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], round)
			fork.WriteFrame(f, 16, b[:])
			if v, err := fork.ReadU64(hpa + 8); err != nil || v != uint64(i) {
				t.Fatalf("frame %d: captured word %d, %v; want %d", i, v, err, i)
			}
			if v, err := fork.ReadU64(hpa + 16); err != nil || v != round {
				t.Fatalf("frame %d: own word %d, %v; want %d", i, v, err, round)
			}
		}
	}
	wg.Wait()
	if got, want := fork.FrameCount(), len(own)+16*chunkFrames; got != want {
		t.Fatalf("fork holds %d frames, want %d", got, want)
	}
}

// TestSnapshotSharedWindow: a frame that adopted a window of an immutable
// page through WriteShared is captured, forked, restored, written and
// freed; the first write to each copy copies the page, and the source
// page, the snapshot and the parent keep their bytes. Adoption is refused
// when a byte outside the write differs from the window.
func TestSnapshotSharedWindow(t *testing.T) {
	src := make([]byte, PageSize)
	for i := range src {
		src[i] = byte(i*7 + 3)
	}
	orig := bytes.Clone(src)
	p := NewPhysMem(0)
	hpa, f := allocFrame(t, p)
	// Boehm's payload layout: the head word lands first, buffered, then
	// the rest of the page from offset 8 adopts the window.
	p.WriteShared(f, 0, 8, src)
	if f.data != nil {
		t.Fatal("an 8-byte shared write adopted the window")
	}
	p.WriteShared(f, 8, PageSize-8, src)
	if f.data == nil || &f.data[0] != &src[0] || f.sw != nil {
		t.Fatal("the rest of the page did not adopt the window")
	}
	if f.Data() != nil {
		t.Fatal("an adopted window is open to in-place writes")
	}
	want := func(p *PhysMem, what string, w []byte) {
		t.Helper()
		if got, err := p.FrameBytes(hpa); err != nil || !bytes.Equal(got, w) {
			t.Fatalf("%s differs from its expected page (%v)", what, err)
		}
		if !bytes.Equal(src, orig) {
			t.Fatalf("source page changed by the time %s was read", what)
		}
	}
	want(p, "the adopting frame", orig)

	snap := p.CaptureSnapshot()
	fork := snap.NewPhysMem()
	want(fork, "a fork", orig)
	if err := fork.WriteU64(hpa+16, 0xF0F0); err != nil {
		t.Fatal(err)
	}
	forked := bytes.Clone(orig)
	binary.LittleEndian.PutUint64(forked[16:], 0xF0F0)
	want(fork, "the written fork", forked)
	if ff, _ := fork.FrameRef(hpa); ff.Data() == nil || &ff.data[0] == &src[0] {
		t.Fatal("a write to a fork's adopted window did not copy the page")
	}
	want(p, "the parent after a fork's write", orig)
	want(snap.NewPhysMem(), "the snapshot after a fork's write", orig)

	if err := p.Write(hpa+100, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	written := bytes.Clone(orig)
	copy(written[100:], []byte{1, 2, 3})
	want(p, "the written parent", written)
	p.RestoreSnapshot(snap)
	want(p, "the restored parent", orig)
	if err := fork.FreeFrame(hpa); err != nil {
		t.Fatal(err)
	}
	want(p, "the parent after a fork's free", orig)
	want(snap.NewPhysMem(), "the snapshot after a fork's free", orig)

	// Refusals: a buffered head or tail of other bytes, a private
	// materialized page, and an untouched head where the window's is not
	// zero. Each lands the write as WriteFrame does.
	for _, c := range []struct {
		name   string
		prep   func(q *PhysMem, f *Frame)
		off, n int
	}{
		{"buffered head of other bytes", func(q *PhysMem, f *Frame) { q.WriteFrame(f, 0, []byte{9, 9, 9, 9, 9, 9, 9, 9}) }, 8, PageSize - 8},
		{"buffered tail of other bytes", func(q *PhysMem, f *Frame) { q.WriteFrame(f, PageSize-8, []byte{9, 9, 9, 9, 9, 9, 9, 9}) }, 0, PageSize - 8},
		{"private materialized page", func(q *PhysMem, f *Frame) { q.WriteFrame(f, 0, orig[:64]) }, 8, PageSize - 8},
		{"zero head", func(*PhysMem, *Frame) {}, 8, PageSize - 8},
	} {
		q := NewPhysMem(0)
		h, g := allocFrame(t, q)
		c.prep(q, g)
		w, err := q.FrameBytes(h)
		if err != nil {
			t.Fatal(err)
		}
		q.WriteShared(g, uint64(c.off), c.n, src)
		if &g.data[0] == &src[0] || g.Data() == nil {
			t.Fatalf("%s: the frame adopted the window", c.name)
		}
		copy(w[c.off:], orig[c.off:c.off+c.n])
		if got, _ := q.FrameBytes(h); !bytes.Equal(got, w) {
			t.Fatalf("%s: the refused write landed wrong bytes", c.name)
		}
	}
	if !bytes.Equal(src, orig) {
		t.Fatal("source page changed")
	}
}
