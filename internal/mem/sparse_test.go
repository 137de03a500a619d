package mem

import (
	"bytes"
	"runtime"
	"testing"
)

// allocFrame returns a fresh frame and its HPA.
func allocFrame(t *testing.T, p *PhysMem) (HPA, *Frame) {
	t.Helper()
	hpa, err := p.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	f, err := p.FrameRef(hpa)
	if err != nil {
		t.Fatal(err)
	}
	return hpa, f
}

func TestSparseFrameBuffersSmallWrites(t *testing.T) {
	p := NewPhysMem(0)
	hpa, f := allocFrame(t, p)
	// The dirty-tracking pattern: one word per page, rewritten in place.
	if err := p.WriteU64(hpa+8, 0xAA); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteU64(hpa+8, 0xBB); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteU64(hpa+4088, 0xCC); err != nil {
		t.Fatal(err)
	}
	if f.Data() != nil {
		t.Fatal("frame materialized by buffered word writes")
	}
	if v, err := p.ReadU64(hpa + 8); err != nil || v != 0xBB {
		t.Errorf("rewritten word = %#x, %v; want 0xBB", v, err)
	}
	if v, err := p.ReadU64(hpa + 4088); err != nil || v != 0xCC {
		t.Errorf("second word = %#x, %v; want 0xCC", v, err)
	}
	// Untouched bytes read as zeros.
	if v, err := p.ReadU64(hpa + 1024); err != nil || v != 0 {
		t.Errorf("untouched word = %#x, %v; want 0", v, err)
	}
}

func TestSparseFrameReadOverlaysPartialRanges(t *testing.T) {
	p := NewPhysMem(0)
	hpa, f := allocFrame(t, p)
	if err := p.Write(hpa+100, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if f.Data() != nil {
		t.Fatal("frame materialized by one 4-byte write")
	}
	// Read a window straddling the buffered write on both sides.
	got := make([]byte, 8)
	if err := p.Read(hpa+98, got); err != nil {
		t.Fatal(err)
	}
	want := []byte{0, 0, 1, 2, 3, 4, 0, 0}
	if !bytes.Equal(got, want) {
		t.Errorf("straddling read = %v, want %v", got, want)
	}
	// Read only the middle of the buffered write.
	got = make([]byte, 2)
	if err := p.Read(hpa+101, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 || got[1] != 3 {
		t.Errorf("interior read = %v, want [2 3]", got)
	}
}

func TestSparseFrameOverlapMaterializes(t *testing.T) {
	p := NewPhysMem(0)
	hpa, f := allocFrame(t, p)
	if err := p.WriteU64(hpa, 0x1111111111111111); err != nil {
		t.Fatal(err)
	}
	// Partially overlapping write: must materialize, not corrupt.
	if err := p.WriteU64(hpa+4, 0x2222222222222222); err != nil {
		t.Fatal(err)
	}
	if f.Data() == nil {
		t.Fatal("overlapping write left the frame sparse")
	}
	got := make([]byte, 12)
	if err := p.Read(hpa, got); err != nil {
		t.Fatal(err)
	}
	want := []byte{0x11, 0x11, 0x11, 0x11, 0x22, 0x22, 0x22, 0x22, 0x22, 0x22, 0x22, 0x22}
	if !bytes.Equal(got, want) {
		t.Errorf("after overlap: %x, want %x", got, want)
	}
}

func TestSparseFrameBufferOverflowMaterializes(t *testing.T) {
	p := NewPhysMem(0)
	hpa, f := allocFrame(t, p)
	// One more disjoint write than the buffer holds.
	for i := uint64(0); i <= sparseWritesMax; i++ {
		if err := p.WriteU64(hpa+HPA(i*64), i+1); err != nil {
			t.Fatal(err)
		}
	}
	if f.Data() == nil {
		t.Fatalf("frame still sparse after %d disjoint writes", sparseWritesMax+1)
	}
	// Every buffered write must have been replayed into the backing array.
	for i := uint64(0); i <= sparseWritesMax; i++ {
		if v, err := p.ReadU64(hpa + HPA(i*64)); err != nil || v != i+1 {
			t.Errorf("word %d = %#x, %v; want %#x", i, v, err, i+1)
		}
	}
}

func TestSparseFrameLargeWriteMaterializes(t *testing.T) {
	p := NewPhysMem(0)
	hpa, f := allocFrame(t, p)
	if err := p.WriteU64(hpa+512, 0xDD); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 64)
	for i := range big {
		big[i] = byte(i)
	}
	if err := p.Write(hpa, big); err != nil {
		t.Fatal(err)
	}
	if f.Data() == nil {
		t.Fatal("64-byte write left the frame sparse")
	}
	got := make([]byte, 64)
	if err := p.Read(hpa, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Error("large write content lost")
	}
	if v, err := p.ReadU64(hpa + 512); err != nil || v != 0xDD {
		t.Errorf("pre-materialization word = %#x, %v; want 0xDD", v, err)
	}
}

func TestSparseFrameBytesAndU64At(t *testing.T) {
	p := NewPhysMem(0)
	hpa, f := allocFrame(t, p)
	if err := p.WriteU64(hpa+16, 0xFEED); err != nil {
		t.Fatal(err)
	}
	full, err := p.FrameBytes(hpa)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != PageSize {
		t.Fatalf("FrameBytes length %d", len(full))
	}
	if full[16] != 0xED || full[17] != 0xFE || full[0] != 0 || full[4095] != 0 {
		t.Error("FrameBytes content wrong for sparse frame")
	}
	if v := f.U64At(16); v != 0xFEED {
		t.Errorf("U64At = %#x, want 0xFEED", v)
	}
	// Same answers after materialization.
	p.Materialize(f)
	if v := f.U64At(16); v != 0xFEED {
		t.Errorf("U64At after materialize = %#x", v)
	}
	full2, err := p.FrameBytes(hpa)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, full2) {
		t.Error("FrameBytes differ before/after materialization")
	}
}

// TestFirstMaterializationAllocatesLittle pins growing page slabs: a fresh
// PhysMem that materializes one page allocates a small slab for it, not a
// 2 MiB one, and Reset starts the growth over.
func TestFirstMaterializationAllocatesLittle(t *testing.T) {
	page := make([]byte, PageSize)
	page[0] = 1
	var p *PhysMem
	for _, name := range []string{"fresh", "after Reset"} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if p == nil {
			p = NewPhysMem(0)
		} else {
			p.Reset()
		}
		hpa, err := p.AllocFrame()
		if err == nil {
			err = p.Write(hpa, page)
		}
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
			t.Errorf("%s: materializing one page allocated %d bytes, want < 64 KiB", name, got)
		}
	}
}
