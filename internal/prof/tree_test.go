package prof

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// buildCell simulates one shard cell's profile: a migration round with a
// collect/drain chain plus some flat cpu work, all scaled by seed so
// cells are distinguishable.
func buildCell(seed int64) *Profiler {
	p := New()
	var clock sim.Clock
	tap := p.Tap(&clock)
	span(tap, &clock, "migration", RoundOp(0), 0, func() {
		span(tap, &clock, "migration", "collect", 3*seed, func() {
			span(tap, &clock, "hypervisor", "pml_drain", 7*seed, nil)
		})
		span(tap, &clock, "migration", "send", 2*seed, nil)
	})
	span(tap, &clock, "cpu", "page_walk", seed, nil)
	return p
}

func permutations(n int) [][]int {
	var out [][]int
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), perm...))
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return out
}

// TestMergePermutationDeterminism guards the diff engine's alignment
// assumption: merging the same shard cells in any order must yield
// byte-identical WriteFolded and WritePprof output and identical
// TopFrames. (A parallel sweep merges per-cell profilers in grid order;
// the diff engine then aligns two runs node-for-node, which only works
// if merge order can never perturb an export.)
func TestMergePermutationDeterminism(t *testing.T) {
	seeds := []int64{1, 10, 100, 1000}
	var wantFolded, wantPprof []byte
	var wantTop []FrameStat
	for pi, perm := range permutations(len(seeds)) {
		merged := New()
		for _, idx := range perm {
			merged.Merge(buildCell(seeds[idx]))
		}
		var folded, pprof bytes.Buffer
		if err := merged.WriteFolded(&folded); err != nil {
			t.Fatal(err)
		}
		if err := merged.WritePprof(&pprof); err != nil {
			t.Fatal(err)
		}
		top := merged.TopFrames()
		if pi == 0 {
			wantFolded, wantPprof, wantTop = folded.Bytes(), pprof.Bytes(), top
			continue
		}
		if !bytes.Equal(folded.Bytes(), wantFolded) {
			t.Errorf("perm %v: folded output differs:\n%s\nvs\n%s",
				perm, folded.String(), wantFolded)
		}
		if !bytes.Equal(pprof.Bytes(), wantPprof) {
			t.Errorf("perm %v: pprof bytes differ", perm)
		}
		if !reflect.DeepEqual(top, wantTop) {
			t.Errorf("perm %v: TopFrames differ:\n%+v\nvs\n%+v", perm, top, wantTop)
		}
	}
}

func TestTreeMatchesProfiler(t *testing.T) {
	p := buildCell(3)
	tr := p.Tree()
	if tr.Empty() {
		t.Fatal("tree of a live profiler is empty")
	}
	if got, want := tr.TotalNanos(), p.Tree().TotalNanos(); got != want {
		t.Errorf("Tree TotalNanos = %d, profiler says %d", got, want)
	}
	if !reflect.DeepEqual(tr.Paths(), p.Tree().Paths()) {
		t.Errorf("Tree.Paths != Profiler.Paths:\n%+v\nvs\n%+v", tr.Paths(), p.Tree().Paths())
	}
	if !reflect.DeepEqual(tr.CriticalPath(), p.CriticalPath()) {
		t.Errorf("Tree.CriticalPath != Profiler.CriticalPath")
	}

	// Snapshot semantics: later spans must not leak into an old tree.
	before := tr.TotalNanos()
	var clock sim.Clock
	tap := p.Tap(&clock)
	span(tap, &clock, "cpu", "late", 99, nil)
	if tr.TotalNanos() != before {
		t.Error("Tree mutated by post-snapshot spans")
	}

	var nilP *Profiler
	if !nilP.Tree().Empty() {
		t.Error("nil profiler must export an empty tree")
	}
	var nilT *Tree
	if nilT.TotalNanos() != 0 || !nilT.Empty() || nilT.Paths() != nil || nilT.CriticalPath() != nil {
		t.Error("nil tree accessors must be safe and empty")
	}
}

func TestParseFoldedRoundTrip(t *testing.T) {
	p := buildCell(5)
	var folded bytes.Buffer
	if err := p.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	tr, err := ParseFolded(&folded)
	if err != nil {
		t.Fatal(err)
	}

	// Inclusive times are reconstructed exactly; counts are lost (zero).
	want := p.Tree().Paths()
	got := tr.Paths()
	if len(got) != len(want) {
		t.Fatalf("round-trip paths: got %d, want %d\n%+v", len(got), len(want), got)
	}
	for i := range want {
		if joinPath(got[i].Path) != joinPath(want[i].Path) ||
			got[i].Incl != want[i].Incl || got[i].Excl != want[i].Excl {
			t.Errorf("path %d: got %s incl=%d excl=%d, want %s incl=%d excl=%d",
				i, joinPath(got[i].Path), got[i].Incl, got[i].Excl,
				joinPath(want[i].Path), want[i].Incl, want[i].Excl)
		}
		if got[i].Count != 0 {
			t.Errorf("path %d: parsed count = %d, folded format carries no counts", i, got[i].Count)
		}
	}
	if got, want := tr.TotalNanos(), p.Tree().TotalNanos(); got != want {
		t.Errorf("round-trip TotalNanos = %d, want %d", got, want)
	}

	// CriticalPath on the parsed tree must find the same dominant chain
	// (counts aside - the format drops them).
	pr, trr := p.CriticalPath(), tr.CriticalPath()
	if len(trr) != len(pr) {
		t.Fatalf("parsed CriticalPath: got %d rounds, want %d", len(trr), len(pr))
	}
	for i := range pr {
		if trr[i].Sub != pr[i].Sub || trr[i].Round != pr[i].Round ||
			trr[i].Total != pr[i].Total || trr[i].Dominant() != pr[i].Dominant() {
			t.Errorf("round %d: parsed %+v vs live %+v", i, trr[i], pr[i])
		}
	}

	// Re-folding the parsed tree reproduces the export byte-for-byte:
	// walk Paths and emit like WriteFolded does.
	var refolded bytes.Buffer
	for _, ps := range tr.Paths() {
		if ps.Excl > 0 {
			fmt.Fprintf(&refolded, "%s %d\n", joinPath(ps.Path), ps.Excl)
		}
	}
	var orig bytes.Buffer
	if err := p.WriteFolded(&orig); err != nil {
		t.Fatal(err)
	}
	if refolded.String() != orig.String() {
		t.Errorf("re-folded parse differs:\n%s\nvs\n%s", refolded.String(), orig.String())
	}
}

func TestParseFoldedErrors(t *testing.T) {
	for _, bad := range []string{
		"no-namespace 10",       // frame without sub/op
		"cpu/walk",              // missing ns column
		"cpu/walk ten",          // non-numeric ns
		"cpu/walk;/broken 3",    // empty sub in second frame
		"cpu/walk;migration/ 3", // empty op
		" 12",                   // empty path
	} {
		if _, err := ParseFolded(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseFolded(%q) did not fail", bad)
		}
	}
	// Blank lines and repeated paths are fine (repeats accumulate).
	tr, err := ParseFolded(strings.NewReader("\ncpu/walk 4\n\ncpu/walk 6\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Roots) != 1 || tr.Roots[0].Excl != 10 {
		t.Errorf("repeated path did not accumulate: %+v", tr.Roots)
	}
}

func TestDiffTreesSelfIsZero(t *testing.T) {
	p := buildCell(7)
	deltas := DiffTrees(p.Tree(), p.Tree())
	if len(deltas) != len(p.Tree().Paths()) {
		t.Fatalf("self-diff rows = %d, want %d (one per live path)", len(deltas), len(p.Tree().Paths()))
	}
	for _, d := range deltas {
		if !d.Zero() {
			t.Errorf("self-diff path %s has nonzero delta: %+v", d, d)
		}
	}
	if TotalInclDelta(deltas) != 0 {
		t.Errorf("self-diff total incl delta = %d", TotalInclDelta(deltas))
	}
	if ranked := RankByExclDelta(deltas); len(ranked) != 0 {
		t.Errorf("self-diff ranking not empty: %+v", ranked)
	}
}

func TestDiffTreesAttribution(t *testing.T) {
	old := buildCell(10)
	// New run: same shape but pml_drain tripled (the regression), plus a
	// path that only exists in the new run, minus cpu/page_walk.
	newP := New()
	var clock sim.Clock
	tap := newP.Tap(&clock)
	span(tap, &clock, "migration", RoundOp(0), 0, func() {
		span(tap, &clock, "migration", "collect", 30, func() {
			span(tap, &clock, "hypervisor", "pml_drain", 210, nil)
		})
		span(tap, &clock, "migration", "send", 20, nil)
	})
	span(tap, &clock, "gc", "scan", 5, nil)

	deltas := DiffTrees(old.Tree(), newP.Tree())

	// Partition identity: sum of exclusive deltas == total inclusive delta.
	var exclSum int64
	for _, d := range deltas {
		exclSum += d.ExclDelta()
	}
	total := TotalInclDelta(deltas)
	if exclSum != total {
		t.Fatalf("sum(exclDelta)=%d != totalInclDelta=%d", exclSum, total)
	}
	if want := newP.Tree().TotalNanos() - old.Tree().TotalNanos(); total != want {
		t.Fatalf("totalInclDelta=%d, want %d", total, want)
	}

	byPath := map[string]PathDelta{}
	for _, d := range deltas {
		byPath[d.String()] = d
	}
	drain := byPath["migration/round0;migration/collect;hypervisor/pml_drain"]
	if drain.OldExcl != 70 || drain.NewExcl != 210 || drain.ExclDelta() != 140 {
		t.Errorf("pml_drain delta: %+v", drain)
	}
	appeared := byPath["gc/scan"]
	if appeared.OldIncl != 0 || appeared.NewIncl != 5 || appeared.OldCount != 0 {
		t.Errorf("appeared path: %+v", appeared)
	}
	vanished := byPath["cpu/page_walk"]
	if vanished.OldIncl != 10 || vanished.NewIncl != 0 || vanished.NewCount != 0 {
		t.Errorf("vanished path: %+v", vanished)
	}

	// Ranking: pml_drain's 140ns swing dominates.
	ranked := RankByExclDelta(deltas)
	if len(ranked) == 0 || ranked[0].String() != "migration/round0;migration/collect;hypervisor/pml_drain" {
		t.Errorf("top-ranked delta = %+v", ranked)
	}
	for i := 1; i < len(ranked); i++ {
		if abs64(ranked[i].ExclDelta()) > abs64(ranked[i-1].ExclDelta()) {
			t.Errorf("ranking not descending at %d: %+v", i, ranked)
		}
	}
}

func TestWriteFoldedDiffFormat(t *testing.T) {
	old := New()
	var c1 sim.Clock
	t1 := old.Tap(&c1)
	span(t1, &c1, "criu", "dump", 7, nil)
	newP := New()
	var c2 sim.Clock
	t2 := newP.Tap(&c2)
	span(t2, &c2, "criu", "dump", 9, nil)

	var buf bytes.Buffer
	if err := WriteFoldedDiff(&buf, DiffTrees(old.Tree(), newP.Tree())); err != nil {
		t.Fatal(err)
	}
	want := "criu/dump 7 9 2\n"
	if buf.String() != want {
		t.Errorf("folded diff:\n%q\nwant\n%q", buf.String(), want)
	}
}

func TestWritePprofDiffNegativeValues(t *testing.T) {
	old := buildCell(10)
	newP := buildCell(4) // everything shrinks: all deltas negative

	deltas := DiffTrees(old.Tree(), newP.Tree())
	var buf bytes.Buffer
	if err := WritePprofDiff(&buf, deltas); err != nil {
		t.Fatal(err)
	}
	gz, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatalf("diff profile is not gzip: %v", err)
	}
	raw, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	fields := parseFields(t, raw)
	if len(fields[fSample]) == 0 {
		t.Fatal("diff profile has no samples")
	}
	// Every sample's ns value decodes (two's-complement) to a negative
	// delta; counts are zero deltas only when both runs agree.
	var sawNegative bool
	for _, sb := range fields[fSample] {
		sf := parseFields(t, sb)
		vals := decodePacked(t, sf[fSampleValue][0])
		if int64(vals[1]) < 0 {
			sawNegative = true
		}
	}
	if !sawNegative {
		t.Error("shrinking run produced no negative ns sample values")
	}

	// Self-diff: every row is zero-delta, so the export carries no samples.
	var self bytes.Buffer
	if err := WritePprofDiff(&self, DiffTrees(old.Tree(), old.Tree())); err != nil {
		t.Fatal(err)
	}
	gz2, err := gzip.NewReader(&self)
	if err != nil {
		t.Fatal(err)
	}
	raw2, err := io.ReadAll(gz2)
	if err != nil {
		t.Fatal(err)
	}
	if f2 := parseFields(t, raw2); len(f2[fSample]) != 0 {
		t.Errorf("self-diff pprof has %d samples, want 0", len(f2[fSample]))
	}
}
