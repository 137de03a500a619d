package ringbuf

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestPushPopFIFO(t *testing.T) {
	r := New(8)
	for i := uint64(0); i < 8; i++ {
		if !r.Push(i) {
			t.Fatalf("Push(%d) rejected on non-full ring", i)
		}
	}
	if r.Push(99) {
		t.Error("Push succeeded on full ring")
	}
	if r.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", r.Dropped())
	}
	for i := uint64(0); i < 8; i++ {
		v, ok := r.Pop()
		if !ok || v != i {
			t.Fatalf("Pop = (%d,%v), want (%d,true)", v, ok, i)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Error("Pop succeeded on empty ring")
	}
}

func TestCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{1, 1}, {2, 2}, {3, 4}, {5, 8}, {1000, 1024}} {
		if got := New(tc.in).Cap(); got != tc.want {
			t.Errorf("New(%d).Cap() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestInvalidCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

func TestDrainAndReset(t *testing.T) {
	r := New(16)
	for i := uint64(0); i < 10; i++ {
		r.Push(i * 3)
	}
	got := r.Drain(nil)
	if len(got) != 10 || got[0] != 0 || got[9] != 27 {
		t.Errorf("Drain = %v", got)
	}
	if r.Len() != 0 {
		t.Errorf("Len after Drain = %d", r.Len())
	}
	r.Push(1)
	r.Reset()
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Error("Reset did not clear state")
	}
}

// chunkedCap is the capacity the sequence tests also run at: three 64 KiB
// chunks, rounded up to four, so entries cross chunk boundaries and the
// producer publishes new chunks while the consumer reads.
const chunkedCap = 3 * chunkEntries

// TestWrapAround exercises index wrap far past the capacity.
func TestWrapAround(t *testing.T) {
	for _, capacity := range []int{4, chunkedCap} {
		r := New(capacity)
		rounds := uint64(max(1000, 3*r.Cap()))
		for round := uint64(0); round < rounds; round++ {
			if !r.Push(round) {
				t.Fatalf("cap %d: Push rejected at round %d", capacity, round)
			}
			v, ok := r.Pop()
			if !ok || v != round {
				t.Fatalf("cap %d: round %d: got (%d,%v)", capacity, round, v, ok)
			}
		}
	}
}

// TestConcurrentSPSC proves the lock-free property: one producer and one
// consumer running concurrently neither lose, duplicate nor reorder
// entries, whether the consumer pops or drains. (Rejected pushes on a
// momentarily full ring are expected and retried; they count as drops by
// design.)
func TestConcurrentSPSC(t *testing.T) {
	for _, capacity := range []int{64, chunkedCap} {
		r := New(capacity)
		n := max(20000, 3*r.Cap())
		var got []uint64
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // producer
			defer wg.Done()
			for i := uint64(1); i <= uint64(n); {
				if r.Push(i) {
					i++
				} else {
					runtime.Gosched()
				}
			}
		}()
		go func() { // consumer, alternating Pop and Drain
			defer wg.Done()
			for len(got) < n {
				m := len(got)
				if m%2 == 0 {
					got = r.Drain(got)
				} else if v, ok := r.Pop(); ok {
					got = append(got, v)
				}
				if len(got) == m {
					runtime.Gosched()
				}
			}
		}()
		wg.Wait()
		if len(got) != n {
			t.Fatalf("cap %d: consumed %d entries, want %d", capacity, len(got), n)
		}
		for i, v := range got {
			if v != uint64(i+1) {
				t.Fatalf("cap %d: entry %d = %d, want %d (reorder/duplicate)", capacity, i, v, i+1)
			}
		}
	}
}

// TestQuickSequences drives random push/pop sequences against a slice
// model. On the chunked ring each sequence starts just before a chunk
// boundary.
func TestQuickSequences(t *testing.T) {
	for _, tc := range []struct{ capacity, start int }{{32, 0}, {chunkedCap, chunkEntries - 8}} {
		prop := func(ops []uint16) bool {
			r := New(tc.capacity)
			for i := 0; i < tc.start; i++ {
				r.Push(0)
				r.Pop()
			}
			var model []uint64
			for _, op := range ops {
				if op%3 != 0 { // push twice as often as pop
					v := uint64(op)
					if r.Push(v) {
						model = append(model, v)
					} else if len(model) < r.Cap() {
						return false // rejected while model says not full
					}
				} else {
					v, ok := r.Pop()
					if ok {
						if len(model) == 0 || model[0] != v {
							return false
						}
						model = model[1:]
					} else if len(model) != 0 {
						return false // empty while model says not empty
					}
				}
			}
			return r.Len() == len(model)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("cap %d: %v", tc.capacity, err)
		}
	}
}

// TestLazyChunks pins that a ring's memory follows use: a 1<<20-entry ring
// (8 MiB of capacity) that never holds more than one entry allocates one
// chunk, not its capacity.
func TestLazyChunks(t *testing.T) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r := New(1 << 20)
	for i := uint64(0); i < 10000; i++ {
		r.Push(i)
		if v, ok := r.Pop(); !ok || v != i {
			t.Fatalf("Pop = (%d,%v), want (%d,true)", v, ok, i)
		}
	}
	runtime.ReadMemStats(&m1)
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= 1<<20 {
		t.Errorf("New(1<<20) plus 10000 push/pop pairs allocated %d bytes, want < 1 MiB", got)
	}
}

// TestDrainAcrossChunks drains entries spanning a chunk boundary into a
// caller's buffer.
func TestDrainAcrossChunks(t *testing.T) {
	r := New(chunkedCap)
	for i := 0; i < chunkEntries-3; i++ {
		r.Push(0)
		r.Pop()
	}
	for i := uint64(0); i < 10; i++ {
		r.Push(i)
	}
	got := r.Drain([]uint64{99})
	if len(got) != 11 || got[0] != 99 || got[1] != 0 || got[10] != 9 {
		t.Errorf("Drain = %v", got)
	}
	if r.Len() != 0 {
		t.Errorf("Len after Drain = %d", r.Len())
	}
}

// TestLenConcurrentBounds is the regression test for the Len load-order
// race: Len used to load tail before head, so a Pop landing between the
// two loads made tail-head underflow to a huge positive int. Hammer Len
// against a concurrent producer/consumer pair and require every result to
// stay within [0, Cap]. Run with -race.
func TestLenConcurrentBounds(t *testing.T) {
	r := New(64)
	const iters = 200000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			r.Push(uint64(i))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			r.Pop()
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	bad := 0
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			if n := r.Len(); n < 0 || n > r.Cap() {
				bad++
			}
		}
	}
	// A few final checks after both sides quiesce.
	for i := 0; i < 100; i++ {
		if n := r.Len(); n < 0 || n > r.Cap() {
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("Len out of [0,%d] bounds %d times", r.Cap(), bad)
	}
}

// TestPushBatchMatchesPushes feeds one ring batches and a twin ring the
// same entries one Push at a time: both must accept the same entries, drop
// the same overflow at capacity, allocate the same chunks and drain the
// same sequence. On the chunked ring the batches start just before a
// chunk boundary, so some straddle it.
func TestPushBatchMatchesPushes(t *testing.T) {
	for _, tc := range []struct{ capacity, start int }{{8, 0}, {8, 5}, {chunkedCap, chunkEntries - 7}} {
		batched, single := New(tc.capacity), New(tc.capacity)
		for _, r := range []*Ring{batched, single} {
			for i := 0; i < tc.start; i++ {
				r.Push(0)
				r.Pop()
			}
		}
		next := uint64(1)
		for _, size := range []int{0, 1, 3, 6, 2, 9, 1, 4} {
			vs := make([]uint64, size)
			for i := range vs {
				vs[i] = next
				next++
			}
			want := 0
			for _, v := range vs {
				if single.Push(v) {
					want++
				}
			}
			if got := batched.PushBatch(vs); got != want {
				t.Fatalf("cap %d: PushBatch of %d took %d entries, %d Pushes took %d", tc.capacity, size, got, size, want)
			}
			if batched.Len() != single.Len() || batched.Dropped() != single.Dropped() {
				t.Fatalf("cap %d: batched ring holds %d with %d dropped, single-push ring %d with %d",
					tc.capacity, batched.Len(), batched.Dropped(), single.Len(), single.Dropped())
			}
			for i := range batched.chunks {
				if (batched.chunks[i] == nil) != (single.chunks[i] == nil) {
					t.Fatalf("cap %d: chunk %d allocated by one ring only", tc.capacity, i)
				}
			}
			if size%3 == 0 { // drain now and then, so later batches find room
				if got, want := batched.Drain(nil), single.Drain(nil); !slices.Equal(got, want) {
					t.Fatalf("cap %d: batched ring drained %v, single-push ring %v", tc.capacity, got, want)
				}
			}
		}
		if got, want := batched.Drain(nil), single.Drain(nil); !slices.Equal(got, want) {
			t.Fatalf("cap %d: batched ring drained %v, single-push ring %v", tc.capacity, got, want)
		}
		if single.Dropped() == 0 && tc.capacity == 8 {
			t.Fatalf("cap %d: no batch reached capacity", tc.capacity)
		}
	}
}

// TestPushBatchConcurrentSPSC is TestConcurrentSPSC with a batching
// producer: batches of varying size, the unaccepted rest of each retried,
// against a consumer that pops and drains. Run with -race.
func TestPushBatchConcurrentSPSC(t *testing.T) {
	for _, capacity := range []int{64, chunkedCap} {
		r := New(capacity)
		n := max(20000, 3*r.Cap())
		var got []uint64
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // producer
			defer wg.Done()
			vs := make([]uint64, 0, 512)
			for i := uint64(1); i <= uint64(n); {
				vs = vs[:0]
				for j := i; j <= uint64(n) && len(vs) < int(i%512)+1; j++ {
					vs = append(vs, j)
				}
				k := r.PushBatch(vs)
				i += uint64(k)
				if k < len(vs) {
					runtime.Gosched()
				}
			}
		}()
		go func() { // consumer, alternating Pop and Drain
			defer wg.Done()
			for len(got) < n {
				m := len(got)
				if m%2 == 0 {
					got = r.Drain(got)
				} else if v, ok := r.Pop(); ok {
					got = append(got, v)
				}
				if len(got) == m {
					runtime.Gosched()
				}
			}
		}()
		wg.Wait()
		if len(got) != n {
			t.Fatalf("cap %d: consumed %d entries, want %d", capacity, len(got), n)
		}
		for i, v := range got {
			if v != uint64(i+1) {
				t.Fatalf("cap %d: entry %d = %d, want %d (reorder/duplicate)", capacity, i, v, i+1)
			}
		}
	}
}
