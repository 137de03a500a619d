package gheap

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/costmodel"
	"repro/internal/guestos"
	"repro/internal/hypervisor"
	"repro/internal/mem"
)

func newHeap(t testing.TB, size uint64) *Heap {
	t.Helper()
	hyp := hypervisor.New(mem.NewPhysMem(0), costmodel.Default())
	vm, err := hyp.CreateVM()
	if err != nil {
		t.Fatal(err)
	}
	k := guestos.NewKernel(vm.VCPU, costmodel.Default())
	h, err := New(k.Spawn("heap"), size, false)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestAllocFreeReuse(t *testing.T) {
	h := newHeap(t, 1<<16)
	a, err := h.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Alloc(200)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("overlapping allocations")
	}
	if n, bytes := h.Live(); n != 2 || bytes != 104+200 {
		t.Errorf("Live = %d, %d", n, bytes)
	}
	if size, ok := h.BlockSize(a); !ok || size != 104 {
		t.Errorf("BlockSize(a) = %d, %v", size, ok)
	}
	if err := h.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(a); !errors.Is(err, ErrBadFree) {
		t.Errorf("double free: %v", err)
	}
	// First-fit reuses the freed block.
	c, err := h.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Errorf("freed block not reused: %v vs %v", c, a)
	}
}

func TestAllocErrors(t *testing.T) {
	h := newHeap(t, 1<<14)
	if _, err := h.Alloc(0); !errors.Is(err, ErrZeroSize) {
		t.Errorf("zero alloc: %v", err)
	}
	if _, err := h.Alloc(1 << 20); !errors.Is(err, ErrSizeTooBig) {
		t.Errorf("oversize alloc: %v", err)
	}
	// A size whose 8-byte alignment wraps to 0 is oversize too, not an
	// empty block.
	if _, err := h.Alloc(math.MaxUint64); !errors.Is(err, ErrSizeTooBig) {
		t.Errorf("alloc of %d: %v", uint64(math.MaxUint64), err)
	}
	if n, _ := h.Live(); n != 0 {
		t.Fatalf("%d live blocks after failed allocations", n)
	}
	// Exhaustion.
	for {
		if _, err := h.Alloc(1024); err != nil {
			if !errors.Is(err, ErrOutOfHeap) {
				t.Errorf("exhaustion error: %v", err)
			}
			break
		}
	}
}

func TestCoalescing(t *testing.T) {
	h := newHeap(t, 1<<14)
	var addrs []mem.GVA
	for i := 0; i < 8; i++ {
		a, err := h.Alloc(512)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	// Free all in a scrambled order; coalescing must restore one big span.
	for _, i := range []int{3, 1, 7, 0, 5, 2, 6, 4} {
		if err := h.Free(addrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if free := h.FreeBytes(); free != h.Region.Size() {
		t.Errorf("FreeBytes = %d, want %d", free, h.Region.Size())
	}
	// A full-arena allocation must now succeed.
	if _, err := h.Alloc(h.Region.Size()); err != nil {
		t.Errorf("full-arena alloc after coalescing: %v", err)
	}
}

func TestReadWriteThroughHeap(t *testing.T) {
	h := newHeap(t, 1<<14)
	a, err := h.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.WriteU64(a, 8, 0xCAFE); err != nil {
		t.Fatal(err)
	}
	v, err := h.ReadU64(a, 8)
	if err != nil || v != 0xCAFE {
		t.Errorf("ReadU64 = %#x, %v", v, err)
	}
	buf := []byte("heap bytes")
	if err := h.WriteBytes(a, 16, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(buf))
	if err := h.ReadBytes(a, 16, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(buf) {
		t.Errorf("ReadBytes = %q", got)
	}
	// Out-of-arena access rejected.
	if err := h.WriteU64(h.Region.End, 0, 1); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("out of bounds: %v", err)
	}
}

// TestQuickAllocDisjoint: random allocations never overlap and stay inside
// the arena.
func TestQuickAllocDisjoint(t *testing.T) {
	h := newHeap(t, 1<<18)
	type block struct {
		addr mem.GVA
		size uint64
	}
	var live []block
	prop := func(sz uint16, freeIdx uint8) bool {
		size := uint64(sz%2048) + 1
		a, err := h.Alloc(size)
		if err == nil {
			if a < h.Region.Start || a.Add(size) > h.Region.End {
				return false
			}
			for _, b := range live {
				if a < b.addr.Add(b.size) && b.addr < a.Add(size) {
					return false // overlap
				}
			}
			live = append(live, block{a, align(size)})
		}
		if len(live) > 0 && freeIdx%3 == 0 {
			i := int(freeIdx) % len(live)
			if err := h.Free(live[i].addr); err != nil {
				return false
			}
			live = append(live[:i], live[i+1:]...)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPeakTracking(t *testing.T) {
	h := newHeap(t, 1<<14)
	a, _ := h.Alloc(1000)
	b, _ := h.Alloc(2000)
	_ = h.Free(a)
	_ = h.Free(b)
	if h.Peak() < 3000 {
		t.Errorf("Peak = %d, want >= 3000", h.Peak())
	}
	if n, bytes := h.Live(); n != 0 || bytes != 0 {
		t.Errorf("Live after frees = %d, %d", n, bytes)
	}
}
