package mem

import (
	"bytes"
	"encoding/binary"
	"sync"
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
