package prof

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/report"
)

// PathStat is the folded statistics of one call path.
type PathStat struct {
	Path  []Frame
	Incl  int64
	Excl  int64
	Count int64
}

// sortedChildren returns n's children in deterministic (Sub, Op) order.
func sortedChildren(n *node) []*node {
	cs := make([]*node, 0, len(n.children))
	for _, c := range n.children {
		cs = append(cs, c)
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].frame.less(cs[j].frame) })
	return cs
}

// joinPath renders a call path in folded-stack form:
// "sub/op;sub/op;sub/op".
func joinPath(path []Frame) string {
	var b strings.Builder
	for i, f := range path {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(f.Sub)
		b.WriteByte('/')
		b.WriteString(f.Op)
	}
	return b.String()
}

// WriteFolded writes the profile in Brendan Gregg's folded-stack format
// ("path;to;frame <exclusive-ns>\n"), directly consumable by
// flamegraph.pl or speedscope. Paths with zero exclusive time are
// skipped (they still appear as prefixes of their children). Output is
// deterministic: pre-order over the sorted tree.
func (p *Profiler) WriteFolded(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, ps := range p.Tree().Paths() {
		if ps.Excl <= 0 {
			continue
		}
		if _, err := fmt.Fprintf(bw, "%s %d\n", joinPath(ps.Path), ps.Excl); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// FrameStat aggregates one frame across every path it appears on.
type FrameStat struct {
	Frame Frame
	Flat  int64 // exclusive ns summed over all paths
	Cum   int64 // inclusive ns, counting each frame once per path chain
	Count int64
}

// TopFrames aggregates the tree per frame: Flat sums exclusive time over
// every occurrence; Cum sums inclusive time counting a frame only at its
// outermost occurrence on each path (so recursion does not double-count,
// matching pprof's -cum semantics). Sorted by Flat descending, ties by
// frame name.
func (p *Profiler) TopFrames() []FrameStat {
	if p == nil {
		return nil
	}
	agg := make(map[Frame]*FrameStat)
	onPath := make(map[Frame]int)
	var walk func(n *TreeNode)
	walk = func(n *TreeNode) {
		s := agg[n.Frame]
		if s == nil {
			s = &FrameStat{Frame: n.Frame}
			agg[n.Frame] = s
		}
		s.Flat += n.Excl
		s.Count += n.Count
		if onPath[n.Frame] == 0 {
			s.Cum += n.Incl
		}
		onPath[n.Frame]++
		for _, c := range n.Children {
			walk(c)
		}
		onPath[n.Frame]--
	}
	for _, r := range p.Tree().Roots {
		walk(r)
	}
	out := make([]FrameStat, 0, len(agg))
	for _, s := range agg {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Flat != out[j].Flat {
			return out[i].Flat > out[j].Flat
		}
		return out[i].Frame.less(out[j].Frame)
	})
	return out
}

// TopTable renders the top-n frames by exclusive time as an
// oohstat-style table. n <= 0 means all frames.
func (p *Profiler) TopTable(n int) *report.Table {
	t := report.NewTable("Profile: top frames by exclusive virtual time",
		"frame", "flat", "flat%", "cum", "cum%", "count")
	frames := p.TopFrames()
	total := p.Tree().TotalNanos()
	all := len(frames)
	if n > 0 && len(frames) > n {
		frames = frames[:n]
	}
	pct := func(v int64) string {
		if total == 0 {
			return report.FormatPercent(0)
		}
		return report.FormatPercent(100 * float64(v) / float64(total))
	}
	for _, f := range frames {
		t.AddRow(f.Frame.String(),
			time.Duration(f.Flat), pct(f.Flat),
			time.Duration(f.Cum), pct(f.Cum),
			f.Count)
	}
	t.AddNote("total profiled virtual time %s across %d frames",
		report.FormatDuration(time.Duration(total)), all)
	return t
}
