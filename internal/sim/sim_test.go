package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("fresh clock at %v", c.Now())
	}
	c.Advance(3 * time.Millisecond)
	c.AdvanceNanos(500)
	if got, want := c.Nanos(), int64(3*time.Millisecond)+500; got != want {
		t.Errorf("Nanos = %d, want %d", got, want)
	}
	c.Reset()
	if c.Nanos() != 0 {
		t.Errorf("Reset left clock at %d", c.Nanos())
	}
}

func TestClockNeverBackwards(t *testing.T) {
	var c Clock
	defer func() {
		if recover() == nil {
			t.Error("negative Advance did not panic")
		}
	}()
	c.Advance(-time.Nanosecond)
}

func TestStopwatch(t *testing.T) {
	var c Clock
	w := StartWatch(&c)
	c.Advance(time.Millisecond)
	if w.Elapsed() != time.Millisecond {
		t.Errorf("Elapsed = %v", w.Elapsed())
	}
	w2 := StartWatch(&c)
	c.Advance(time.Second)
	if w2.Elapsed() != time.Second {
		t.Errorf("second watch Elapsed = %v", w2.Elapsed())
	}
	if w.Elapsed() != time.Second+time.Millisecond {
		t.Errorf("first watch Elapsed = %v", w.Elapsed())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(123), NewRNG(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
	c := NewRNG(124)
	same := 0
	a = NewRNG(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collided %d/1000 times", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed produced a stuck generator")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		if v := r.Uint64n(3); v >= 3 {
			t.Fatalf("Uint64n(3) = %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v", f)
		}
	}
}

// TestRNGBytesMatchesByteLoop: Bytes yields the stream a byte-at-a-time
// fill yields, for every length up to five words and every alignment of
// the destination, and leaves the generator in the same state.
func TestRNGBytesMatchesByteLoop(t *testing.T) {
	byteLoop := func(r *RNG, b []byte) {
		var v uint64
		for i := range b {
			if i%8 == 0 {
				v = r.Uint64()
			}
			b[i] = byte(v)
			v >>= 8
		}
	}
	for off := 0; off < 8; off++ {
		for n := 0; n <= 40; n++ {
			got, want := NewRNG(uint64(7+n)), NewRNG(uint64(7+n))
			gb, wb := make([]byte, off+n), make([]byte, off+n)
			got.Bytes(gb[off:])
			byteLoop(want, wb[off:])
			if string(gb) != string(wb) {
				t.Fatalf("offset %d, length %d: Bytes = %x, want %x", off, n, gb[off:], wb[off:])
			}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("offset %d, length %d: next draw %#x, want %#x", off, n, g, w)
			}
		}
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	check := func(seed uint64, n uint8) bool {
		r := NewRNG(seed)
		p := r.Perm(int(n))
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= int(n) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(p) == int(n)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestCounters(t *testing.T) {
	var c Counters
	c.Inc("a")
	c.Add("b", 5)
	c.Inc("a")
	if c.Get("a") != 2 || c.Get("b") != 5 || c.Get("absent") != 0 {
		t.Errorf("counters wrong: %s", c.String())
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v", names)
	}
	var d Counters
	d.Add("b", 1)
	d.Merge(&c)
	if d.Get("b") != 6 {
		t.Errorf("Merge: b = %d, want 6", d.Get("b"))
	}
	snap := c.Snapshot()
	c.Inc("a")
	if snap["a"] != 2 {
		t.Error("Snapshot is not a copy")
	}
	c.Reset()
	if len(c.Names()) != 0 {
		t.Error("Reset did not clear")
	}
	if s := d.String(); s != "a=2 b=6" {
		t.Errorf("String = %q", s)
	}
}

// TestCounterHandles pins the handle contract hot paths rely on: a handle
// never detaches, and only touched counters are listed.
func TestCounterHandles(t *testing.T) {
	var c Counters
	h := c.Handle("hot")
	idle := c.Handle("idle")
	if names := c.Names(); len(names) != 0 || len(c.Snapshot()) != 0 || c.String() != "" {
		t.Errorf("untouched handles listed: Names %v, Snapshot %v, String %q", names, c.Snapshot(), c.String())
	}
	h.Inc()
	snap := c.Snapshot()
	h.Add(4)
	c.Restore(snap)
	if got := c.Get("hot"); got != 1 {
		t.Errorf("after Restore hot = %d, want 1", got)
	}
	h.Inc()
	if got := c.Get("hot"); got != 2 {
		t.Errorf("handle resolved before Restore: hot = %d, want 2", got)
	}
	if s := c.String(); s != "hot=2" {
		t.Errorf("String = %q, want only the touched counter", s)
	}
	c.Reset()
	if names := c.Names(); len(names) != 0 {
		t.Errorf("Names after Reset = %v", names)
	}
	idle.Add(0)
	if names := c.Names(); len(names) != 1 || names[0] != "idle" {
		t.Errorf("Names after a bump following Reset = %v, want [idle]", names)
	}
	var d Counters
	d.Merge(&c)
	if s := d.String(); s != "idle=0" {
		t.Errorf("Merge copied %q, want only the touched counter", s)
	}
}
