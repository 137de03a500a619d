package boehmgc

import (
	"errors"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/guestos"
	"repro/internal/hypervisor"
	"repro/internal/mem"
)

func newTestProc(t testing.TB) *guestos.Process {
	t.Helper()
	model := costmodel.Default()
	hyp := hypervisor.New(mem.NewPhysMem(0), model)
	vm, err := hyp.CreateVM()
	if err != nil {
		t.Fatalf("CreateVM: %v", err)
	}
	k := guestos.NewKernel(vm.VCPU, model)
	return k.Spawn("gc-test")
}

func newTestGC(t testing.TB, heapBytes uint64) *GC {
	t.Helper()
	gc, err := New(newTestProc(t), heapBytes, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return gc
}

// TestReachableSurvive: objects reachable from roots are never collected.
func TestReachableSurvive(t *testing.T) {
	gc := newTestGC(t, 1<<20)
	// root -> a -> b, plus loose garbage.
	root, err := gc.Alloc(24, 2)
	if err != nil {
		t.Fatalf("Alloc root: %v", err)
	}
	gc.AddRoot(root)
	a, err := gc.Alloc(24, 2)
	if err != nil {
		t.Fatalf("Alloc a: %v", err)
	}
	b, err := gc.Alloc(16, 1)
	if err != nil {
		t.Fatalf("Alloc b: %v", err)
	}
	if err := gc.SetPtr(root, 0, a); err != nil {
		t.Fatalf("SetPtr: %v", err)
	}
	if err := gc.SetPtr(a, 1, b); err != nil {
		t.Fatalf("SetPtr: %v", err)
	}
	for i := 0; i < 10; i++ {
		if _, err := gc.Alloc(64, 0); err != nil { // garbage
			t.Fatalf("Alloc garbage: %v", err)
		}
	}
	stats, err := gc.Collect()
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if stats.Live != 3 {
		t.Errorf("Live = %d, want 3", stats.Live)
	}
	if stats.Freed != 10 {
		t.Errorf("Freed = %d, want 10", stats.Freed)
	}
	// Data written before GC must be intact after.
	if err := gc.SetData(b, 8, 42); err != nil {
		t.Fatalf("SetData: %v", err)
	}
	if _, err := gc.Collect(); err != nil {
		t.Fatalf("Collect 2: %v", err)
	}
	got, err := gc.GetData(b, 8)
	if err != nil {
		t.Fatalf("GetData: %v", err)
	}
	if got != 42 {
		t.Errorf("b.data = %d, want 42", got)
	}
}

// TestCycleCollected: reference cycles unreachable from roots are freed.
func TestCycleCollected(t *testing.T) {
	gc := newTestGC(t, 1<<20)
	x, _ := gc.Alloc(16, 1)
	y, _ := gc.Alloc(16, 1)
	if err := gc.SetPtr(x, 0, y); err != nil {
		t.Fatal(err)
	}
	if err := gc.SetPtr(y, 0, x); err != nil {
		t.Fatal(err)
	}
	stats, err := gc.Collect()
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if stats.Freed != 2 || stats.Live != 0 {
		t.Errorf("Freed=%d Live=%d, want 2/0", stats.Freed, stats.Live)
	}
}

// TestRootRemovalFrees: dropping the last root frees the whole graph.
func TestRootRemovalFrees(t *testing.T) {
	gc := newTestGC(t, 1<<20)
	root, _ := gc.Alloc(24, 2)
	child, _ := gc.Alloc(16, 0)
	gc.AddRoot(root)
	if err := gc.SetPtr(root, 0, child); err != nil {
		t.Fatal(err)
	}
	if _, err := gc.Collect(); err != nil {
		t.Fatal(err)
	}
	if gc.LiveObjects() != 2 {
		t.Fatalf("live = %d, want 2", gc.LiveObjects())
	}
	gc.RemoveRoot(root)
	stats, err := gc.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Live != 0 || gc.LiveObjects() != 0 {
		t.Errorf("after root removal: Live=%d heap=%d, want 0/0", stats.Live, gc.LiveObjects())
	}
}

// TestAutoTrigger: allocation volume triggers collection.
func TestAutoTrigger(t *testing.T) {
	gc := newTestGC(t, 1<<20)
	gc.TriggerBytes = 4096
	for i := 0; i < 100; i++ {
		if _, err := gc.Alloc(128, 0); err != nil {
			t.Fatalf("Alloc: %v", err)
		}
	}
	if len(gc.Cycles()) == 0 {
		t.Error("no automatic GC cycles after 12 KiB allocated with 4 KiB trigger")
	}
}

// TestEmergencyCollection: an exhausted heap collects and retries.
func TestEmergencyCollection(t *testing.T) {
	gc := newTestGC(t, 64*1024)
	// Fill the heap with garbage, no roots.
	for i := 0; i < 100; i++ {
		if _, err := gc.Alloc(1024, 0); err != nil {
			t.Fatalf("Alloc %d: %v", i, err)
		}
	}
	// The next allocations force emergency cycles rather than failing.
	for i := 0; i < 50; i++ {
		if _, err := gc.Alloc(2048, 0); err != nil {
			t.Fatalf("Alloc after pressure: %v", err)
		}
	}
	if len(gc.Cycles()) == 0 {
		t.Error("no emergency collections happened")
	}
}

// TestBadSlotErrors: pointer-slot misuse is rejected.
func TestBadSlotErrors(t *testing.T) {
	gc := newTestGC(t, 1<<20)
	obj, _ := gc.Alloc(24, 1)
	if err := gc.SetPtr(obj, 1, obj); err == nil {
		t.Error("SetPtr beyond nptrs succeeded")
	}
	if err := gc.SetData(obj, 0, 1); err == nil {
		t.Error("SetData into pointer slot succeeded")
	}
	if _, err := gc.Alloc(8, 2); err == nil {
		t.Error("Alloc with more pointer slots than payload succeeded")
	}
	// The header counts pointer slots in 16 bits: one more must be
	// refused before the object is carved or zeroed.
	big := newTestGC(t, 4<<20)
	if _, err := big.Alloc(1<<20, maxPtrs+1); !errors.Is(err, ErrBadSlot) {
		t.Errorf("Alloc with %d pointer slots: %v, want ErrBadSlot", maxPtrs+1, err)
	}
	if n := big.LiveObjects(); n != 0 {
		t.Errorf("refused Alloc left %d live objects", n)
	}
}
