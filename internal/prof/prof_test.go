package prof

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// span opens a (sub, op) span, advances the clock by ns, runs inner, and
// closes the span - the canonical instrumentation shape.
func span(t *Tap, clock *sim.Clock, sub, op string, ns int64, inner func()) {
	sp := t.Begin(sub, op)
	clock.AdvanceNanos(ns)
	if inner != nil {
		inner()
	}
	sp.End()
}

func TestProfilerFoldsInclusiveExclusive(t *testing.T) {
	p := New()
	var clock sim.Clock
	tap := p.Tap(&clock)

	// a(10) { b(5) { c(2) } b(3) }   => a: incl 20, excl 10; b: incl 10,
	// excl 8, count 2; c: incl 2, excl 2.
	span(tap, &clock, "x", "a", 10, func() {
		span(tap, &clock, "x", "b", 5, func() {
			span(tap, &clock, "x", "c", 2, nil)
		})
		span(tap, &clock, "x", "b", 3, nil)
	})

	paths := p.Tree().Paths()
	want := []struct {
		path  string
		incl  int64
		excl  int64
		count int64
	}{
		{"x/a", 20, 10, 1},
		{"x/a;x/b", 10, 8, 2},
		{"x/a;x/b;x/c", 2, 2, 1},
	}
	if len(paths) != len(want) {
		t.Fatalf("got %d paths, want %d: %+v", len(paths), len(want), paths)
	}
	for i, w := range want {
		got := paths[i]
		if joinPath(got.Path) != w.path || got.Incl != w.incl || got.Excl != w.excl || got.Count != w.count {
			t.Errorf("path %d: got %s incl=%d excl=%d count=%d, want %+v",
				i, joinPath(got.Path), got.Incl, got.Excl, got.Count, w)
		}
	}
	if total := p.Tree().TotalNanos(); total != 20 {
		t.Errorf("TotalNanos = %d, want 20", total)
	}
}

func TestSpanEndClosesLeakedChildren(t *testing.T) {
	p := New()
	var clock sim.Clock
	tap := p.Tap(&clock)

	outer := tap.Begin("x", "outer")
	clock.AdvanceNanos(4)
	tap.Begin("x", "leaked") // never explicitly ended
	clock.AdvanceNanos(6)
	outer.End() // must close the leaked child at the same instant

	paths := p.Tree().Paths()
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2: %+v", len(paths), paths)
	}
	if got := paths[0]; got.Incl != 10 || got.Excl != 4 {
		t.Errorf("outer: incl=%d excl=%d, want 10/4", got.Incl, got.Excl)
	}
	if got := paths[1]; got.Incl != 6 || got.Excl != 6 || got.Count != 1 {
		t.Errorf("leaked: incl=%d excl=%d count=%d, want 6/6/1", got.Incl, got.Excl, got.Count)
	}

	// Double End is a no-op.
	outer.End()
	if got := p.Tree().Paths()[0]; got.Count != 1 {
		t.Errorf("double End changed count: %d", got.Count)
	}
}

func TestRecursiveFramesDoNotDoubleCountCum(t *testing.T) {
	p := New()
	var clock sim.Clock
	tap := p.Tap(&clock)

	// r(2) { r(3) }: flat = 5, cum must be 5 (outermost only), not 5+3.
	span(tap, &clock, "x", "r", 2, func() {
		span(tap, &clock, "x", "r", 3, nil)
	})

	frames := p.TopFrames()
	if len(frames) != 1 {
		t.Fatalf("got %d frames, want 1", len(frames))
	}
	f := frames[0]
	if f.Flat != 5 || f.Cum != 5 || f.Count != 2 {
		t.Errorf("recursive frame: flat=%d cum=%d count=%d, want 5/5/2", f.Flat, f.Cum, f.Count)
	}
}

func TestNilProfilerIsFreeAndSafe(t *testing.T) {
	var p *Profiler
	tap := p.Tap(&sim.Clock{})
	if tap != nil {
		t.Fatal("nil profiler must hand out a nil tap")
	}
	sp := tap.Begin("x", "y") // must not panic
	sp.End()
	if got := p.Tree().Paths(); got != nil {
		t.Errorf("nil profiler Paths = %v, want nil", got)
	}
	if !p.Tree().Empty() || p.Tree().TotalNanos() != 0 {
		t.Error("nil profiler must be empty")
	}
	p.Merge(New()) // no-op
	var buf bytes.Buffer
	if err := p.WriteFolded(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil WriteFolded: err=%v len=%d", err, buf.Len())
	}
}

// TestTapZeroAllocDisabled guards the disabled-profiler hot path: a nil
// Tap's Begin/End/Count must not allocate (instrumented layers call them
// on every simulated operation).
func TestTapZeroAllocDisabled(t *testing.T) {
	var tap *Tap
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tap.Begin("cpu", "page_walk")
		sp.End()
		tap.Count("cpu", "page_walk")
	})
	if allocs != 0 {
		t.Errorf("disabled tap Begin/End allocates %v per op, want 0", allocs)
	}
}

// TestTapSteadyStateNoAlloc checks the enabled path allocates nothing
// once the call-path tree and stack are warm.
func TestTapSteadyStateNoAlloc(t *testing.T) {
	p := New()
	var clock sim.Clock
	tap := p.Tap(&clock)
	allocs := testing.AllocsPerRun(1000, func() {
		a := tap.Begin("cpu", "page_walk")
		b := tap.Begin("hypervisor", "pml_drain")
		clock.AdvanceNanos(3)
		b.End()
		tap.Count("cpu", "tlb_hit")
		a.End()
		tap.Count("cpu", "page_walk")
	})
	if allocs != 0 {
		t.Errorf("warm tap allocates %v per op, want 0", allocs)
	}
}

// TestCountFoldsAsZeroLengthSpan: a Count folds into the tree exactly what
// a Begin and an End at the same clock reading do, at the root and under
// a live span, through every export.
func TestCountFoldsAsZeroLengthSpan(t *testing.T) {
	build := func(zero func(tap *Tap, sub, op string)) *Profiler {
		p := New()
		var clock sim.Clock
		tap := p.Tap(&clock)
		zero(tap, SubCPU, "page_walk")
		span(tap, &clock, SubGC, "mark", 5, func() {
			zero(tap, SubCPU, "page_walk")
			span(tap, &clock, SubCPU, "page_walk", 2, nil)
			zero(tap, SubCPU, "page_walk")
			zero(tap, SubHypervisor, "pml_drain")
		})
		zero(tap, SubCPU, "page_walk")
		return p
	}
	spans := build(func(tap *Tap, sub, op string) { tap.Begin(sub, op).End() })
	counts := build(func(tap *Tap, sub, op string) { tap.Count(sub, op) })
	if !reflect.DeepEqual(counts.Tree(), spans.Tree()) {
		t.Errorf("Count tree = %+v, want %+v", counts.Tree(), spans.Tree())
	}
	for _, export := range []func(*Profiler, io.Writer) error{(*Profiler).WriteFolded, (*Profiler).WritePprof} {
		var got, want bytes.Buffer
		if err := export(counts, &got); err != nil {
			t.Fatal(err)
		}
		if err := export(spans, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("Count export differs from Begin/End's:\n%q\n%q", got.Bytes(), want.Bytes())
		}
	}
}

// TestRuntimeFramesShareNode: a frame built at run time, equal to the
// constants but not sharing their bytes, resolves to the node the
// constants resolved to, whether the last-child pointer or the map
// answers.
func TestRuntimeFramesShareNode(t *testing.T) {
	p := New()
	var clock sim.Clock
	tap := p.Tap(&clock)
	sub, op := strings.Clone(SubCPU), strings.Join([]string{"page", "walk"}, "_")
	span(tap, &clock, SubCPU, "page_walk", 1, nil)
	span(tap, &clock, sub, op, 2, nil) // last-child hit
	span(tap, &clock, SubGC, "mark", 4, nil)
	span(tap, &clock, sub, op, 8, nil) // map hit
	if n := len(p.root.children); n != 2 {
		t.Fatalf("root has %d children, want 2", n)
	}
	walk := p.root.children[Frame{Sub: SubCPU, Op: "page_walk"}]
	if walk == nil || walk.count != 3 || walk.incl != 11 {
		t.Fatalf("cpu/page_walk node = %+v, want count 3, incl 11", walk)
	}
}

// TestAlternatingSiblingsFoldAsMapAlone: siblings opened in turn under
// one parent, which replaces the last-child pointer on every span, fold
// into the tree a map-only lookup builds.
func TestAlternatingSiblingsFoldAsMapAlone(t *testing.T) {
	run := func(mapOnly bool) *Profiler {
		p := New()
		var clock sim.Clock
		tap := p.Tap(&clock)
		begin := func(sub, op string) Span {
			sp := tap.Begin(sub, op)
			if mapOnly {
				forgetLast(&p.root)
			}
			return sp
		}
		for i := int64(1); i <= 6; i++ {
			outer := begin(SubGC, "mark")
			for _, f := range []Frame{{SubCPU, "read"}, {SubCPU, "write"}, {SubGuestOS, "read"}} {
				sp := begin(f.Sub, f.Op)
				clock.AdvanceNanos(i)
				sp.End()
			}
			clock.AdvanceNanos(10 * (i % 2))
			outer.End()
			sp := begin(SubGC, "sweep")
			clock.AdvanceNanos(i)
			sp.End()
		}
		return p
	}
	var got, want bytes.Buffer
	if err := run(false).WriteFolded(&got); err != nil {
		t.Fatal(err)
	}
	if err := run(true).WriteFolded(&want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("last-child pointer changed the tree:\n%s\nmap alone:\n%s", got.String(), want.String())
	}
	for _, line := range []string{"gc/mark;cpu/read 21\n", "gc/mark;guestos/read 21\n"} {
		if !strings.Contains(got.String(), line) {
			t.Errorf("folded output lacks %q:\n%s", line, got.String())
		}
	}
}

// forgetLast clears every node's last-child pointer, so the next lookup
// under any node goes through its map.
func forgetLast(n *node) {
	n.last = nil
	for _, c := range n.children {
		forgetLast(c)
	}
}

func TestMergeIsOrderIndependent(t *testing.T) {
	mk := func(seed int64) *Profiler {
		p := New()
		var clock sim.Clock
		tap := p.Tap(&clock)
		span(tap, &clock, "x", "a", seed, func() {
			span(tap, &clock, "y", "b", 2*seed, nil)
		})
		span(tap, &clock, "y", "b", 3*seed, nil)
		return p
	}

	// Fold the same three cells in two different orders/groupings.
	left := New()
	left.Merge(mk(1))
	left.Merge(mk(10))
	left.Merge(mk(100))

	mid := New()
	mid.Merge(mk(100))
	right := New()
	right.Merge(mk(10))
	right.Merge(mk(1))
	mid.Merge(right)

	var a, b bytes.Buffer
	if err := left.WriteFolded(&a); err != nil {
		t.Fatal(err)
	}
	if err := mid.WriteFolded(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("merge order changed folded output:\n%s\nvs\n%s", a.String(), b.String())
	}
	var pa, pb bytes.Buffer
	if err := left.WritePprof(&pa); err != nil {
		t.Fatal(err)
	}
	if err := mid.WritePprof(&pb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pa.Bytes(), pb.Bytes()) {
		t.Error("merge order changed pprof bytes")
	}
}

func TestWriteFoldedFormat(t *testing.T) {
	p := New()
	var clock sim.Clock
	tap := p.Tap(&clock)
	span(tap, &clock, "criu", "checkpoint", 1, func() {
		span(tap, &clock, "criu", "dump", 7, nil)
	})
	var buf bytes.Buffer
	if err := p.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	want := "criu/checkpoint 1\ncriu/checkpoint;criu/dump 7\n"
	if buf.String() != want {
		t.Errorf("folded output:\n%q\nwant\n%q", buf.String(), want)
	}
}

func TestTopTableRenders(t *testing.T) {
	p := New()
	var clock sim.Clock
	tap := p.Tap(&clock)
	span(tap, &clock, "cpu", "page_walk", 90, nil)
	span(tap, &clock, "cpu", "pml_log", 10, nil)
	out := p.TopTable(10).Render()
	for _, want := range []string{"cpu/page_walk", "cpu/pml_log", "90.0%", "10.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("top table missing %q:\n%s", want, out)
		}
	}
	// page_walk (flat 90) must sort above pml_log (flat 10).
	if strings.Index(out, "page_walk") > strings.Index(out, "pml_log") {
		t.Errorf("top table not sorted by flat:\n%s", out)
	}
}

func TestRoundOpInterningAndParse(t *testing.T) {
	for _, n := range []int{0, 1, 7, 63, 64, 1000} {
		op := RoundOp(n)
		got, ok := RoundNumber(op)
		if !ok || got != n {
			t.Errorf("RoundNumber(RoundOp(%d)) = %d, %v", n, got, ok)
		}
	}
	for _, bad := range []string{"", "round", "roundx", "round-1", "dump", "checkpoint"} {
		if _, ok := RoundNumber(bad); ok {
			t.Errorf("RoundNumber(%q) unexpectedly ok", bad)
		}
	}
	allocs := testing.AllocsPerRun(100, func() { _ = RoundOp(3) })
	if allocs != 0 {
		t.Errorf("interned RoundOp allocates %v", allocs)
	}
}

func TestCriticalPath(t *testing.T) {
	p := New()
	var clock sim.Clock
	tap := p.Tap(&clock)

	span(tap, &clock, "criu", "checkpoint", 0, func() {
		span(tap, &clock, "criu", RoundOp(1), 0, func() {
			span(tap, &clock, "criu", "collect", 30, func() {
				span(tap, &clock, "core", "ring_drain", 20, nil)
			})
			span(tap, &clock, "criu", "dump", 10, nil)
		})
		span(tap, &clock, "criu", RoundOp(2), 0, func() {
			span(tap, &clock, "criu", "collect", 5, nil)
			span(tap, &clock, "criu", "dump", 40, nil)
		})
	})

	rounds := p.CriticalPath()
	if len(rounds) != 2 {
		t.Fatalf("got %d rounds, want 2: %+v", len(rounds), rounds)
	}
	r1 := rounds[0]
	if r1.Round != 1 || r1.Sub != "criu" || r1.Total != 60 {
		t.Errorf("round 1: %+v", r1)
	}
	if got := r1.Dominant(); got != "collect > core/ring_drain" {
		t.Errorf("round 1 dominant = %q", got)
	}
	r2 := rounds[1]
	if r2.Round != 2 || r2.Total != 45 {
		t.Errorf("round 2: %+v", r2)
	}
	if got := r2.Dominant(); got != "dump" {
		t.Errorf("round 2 dominant = %q", got)
	}
	if s := r2.Share(); s < 0.88 || s > 0.90 {
		t.Errorf("round 2 share = %v, want ~40/45", s)
	}

	tbl := p.CriticalPathTable()
	if tbl == nil {
		t.Fatal("CriticalPathTable returned nil with rounds present")
	}
	out := tbl.Render()
	if !strings.Contains(out, "collect > core/ring_drain") {
		t.Errorf("critical table missing dominant path:\n%s", out)
	}

	if empty := New().CriticalPathTable(); empty != nil {
		t.Error("CriticalPathTable must be nil without round spans")
	}
}
