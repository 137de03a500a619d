package prof

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Tree is the exported, alignment-friendly view of a call-path tree: the
// form the cross-run diff engine (internal/obsdiff) consumes. It exists so
// a profile can round-trip through the folded-stack export and come back
// diffable - two runs captured on different machines align node-for-node
// because children are sorted by frame and the folded identity
// incl = excl + sum(child incl) reconstructs inclusive time exactly.
//
// A Tree is a snapshot: mutating the Profiler it came from does not change
// it.
type Tree struct {
	// Roots are the top-level spans in (Sub, Op) order.
	Roots []*TreeNode
}

// TreeNode is one call-path vertex.
type TreeNode struct {
	Frame Frame
	// Incl is inclusive virtual ns (whole span, children included).
	Incl int64
	// Excl is exclusive virtual ns (Incl minus time in child spans).
	Excl int64
	// Count is completed spans on this path. Trees parsed back from a
	// folded export carry zero counts (the format does not record them).
	Count int64
	// Children are sorted by frame; interior nodes with zero exclusive
	// time still appear (they are prefixes of their children).
	Children []*TreeNode
}

// Tree exports the profiler's call-path tree. Nil-receiver safe (returns
// an empty tree).
func (p *Profiler) Tree() *Tree {
	t := &Tree{}
	if p == nil {
		return t
	}
	var conv func(n *node) *TreeNode
	conv = func(n *node) *TreeNode {
		tn := &TreeNode{Frame: n.frame, Incl: n.incl, Excl: n.excl, Count: n.count}
		for _, c := range sortedChildren(n) {
			tn.Children = append(tn.Children, conv(c))
		}
		return tn
	}
	for _, c := range sortedChildren(&p.root) {
		t.Roots = append(t.Roots, conv(c))
	}
	return t
}

// TotalNanos returns the total profiled virtual time: the sum of the
// roots' inclusive times.
func (t *Tree) TotalNanos() int64 {
	if t == nil {
		return 0
	}
	var total int64
	for _, r := range t.Roots {
		total += r.Incl
	}
	return total
}

// Empty reports whether the tree has no spans.
func (t *Tree) Empty() bool { return t == nil || len(t.Roots) == 0 }

// Paths flattens the tree into a deterministic pre-order list (children
// in (Sub, Op) order). Nodes with no recorded data - zero count and zero
// times, such as a span still open - are skipped (parsed trees have zero
// counts everywhere, so the skip there is on zero times).
func (t *Tree) Paths() []PathStat {
	if t == nil {
		return nil
	}
	var out []PathStat
	var stack []Frame
	var walk func(n *TreeNode)
	walk = func(n *TreeNode) {
		stack = append(stack, n.Frame)
		if n.Count > 0 || n.Incl != 0 || n.Excl != 0 {
			out = append(out, PathStat{
				Path:  append([]Frame(nil), stack...),
				Incl:  n.Incl,
				Excl:  n.Excl,
				Count: n.Count,
			})
		}
		for _, c := range n.Children {
			walk(c)
		}
		stack = stack[:len(stack)-1]
	}
	for _, r := range t.Roots {
		walk(r)
	}
	return out
}

// CriticalPath scans the tree for round spans (ops shaped like RoundOp)
// and descends each one's maximum-inclusive-time child chain, exactly like
// Profiler.CriticalPath. Parsed trees carry zero counts, so the count>0
// guard the profiler applies becomes "has any recorded data".
func (t *Tree) CriticalPath() []RoundPath {
	if t == nil {
		return nil
	}
	var out []RoundPath
	var walk func(n *TreeNode)
	walk = func(n *TreeNode) {
		if round, ok := RoundNumber(n.Frame.Op); ok && nodeHasData(n) {
			out = append(out, RoundPath{
				Sub:   n.Frame.Sub,
				Round: round,
				Total: n.Incl,
				Count: n.Count,
				Steps: descendTree(n),
			})
			return // rounds do not nest
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range t.Roots {
		walk(r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sub != out[j].Sub {
			return out[i].Sub < out[j].Sub
		}
		return out[i].Round < out[j].Round
	})
	return out
}

func nodeHasData(n *TreeNode) bool { return n.Count > 0 || n.Incl != 0 || n.Excl != 0 }

// descendTree follows the max-inclusive child chain below n.
func descendTree(n *TreeNode) []PathStep {
	var steps []PathStep
	for {
		var best *TreeNode
		for _, c := range n.Children {
			if !nodeHasData(c) {
				continue
			}
			if best == nil || c.Incl > best.Incl {
				best = c
			}
		}
		if best == nil {
			return steps
		}
		steps = append(steps, PathStep{Frame: best.Frame, Incl: best.Incl})
		n = best
	}
}

// ParseFolded parses a folded-stack export (the WriteFolded format:
// "sub/op;sub/op <exclusive-ns>" per line) back into a Tree. Inclusive
// times are reconstructed from the span-stack identity the profiler
// maintains - a span's inclusive time is its exclusive time plus the
// inclusive times of its children - which holds exactly for every profile
// this package writes. Counts are not recorded in the format and come back
// zero. Blank lines are tolerated; anything else malformed is an error.
func ParseFolded(r io.Reader) (*Tree, error) {
	root := &TreeNode{}
	index := map[*TreeNode]map[Frame]*TreeNode{}
	child := func(n *TreeNode, f Frame) *TreeNode {
		m := index[n]
		if m == nil {
			m = map[Frame]*TreeNode{}
			index[n] = m
		}
		c := m[f]
		if c == nil {
			c = &TreeNode{Frame: f}
			m[f] = c
			n.Children = append(n.Children, c)
		}
		return c
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			return nil, fmt.Errorf("folded line %d: want \"path ns\", got %q", lineNo, line)
		}
		excl, err := strconv.ParseInt(line[sp+1:], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("folded line %d: bad ns %q: %v", lineNo, line[sp+1:], err)
		}
		n := root
		for _, part := range strings.Split(line[:sp], ";") {
			sub, op, ok := strings.Cut(part, "/")
			if !ok || sub == "" || op == "" {
				return nil, fmt.Errorf("folded line %d: frame %q is not sub/op", lineNo, part)
			}
			n = child(n, Frame{Sub: sub, Op: op})
		}
		n.Excl += excl
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	// Sort every level and fold the inclusive identity bottom-up.
	var finish func(n *TreeNode) int64
	finish = func(n *TreeNode) int64 {
		sort.Slice(n.Children, func(i, j int) bool {
			return n.Children[i].Frame.less(n.Children[j].Frame)
		})
		n.Incl = n.Excl
		for _, c := range n.Children {
			n.Incl += finish(c)
		}
		return n.Incl
	}
	finish(root)
	return &Tree{Roots: root.Children}, nil
}
