// Package prof is a deterministic virtual-time span profiler for the
// simulated stack. Spans are opened and closed around interesting work
// (Begin/End), timed exclusively off a sim.Clock, and folded into a
// call-path tree keyed by the stack of (subsystem, op) frames. The tree
// records, per path, inclusive nanoseconds (the whole span), exclusive
// nanoseconds (span time minus time spent in child spans) and a call
// count - everything a flamegraph or pprof profile needs.
//
// Determinism rules mirror the trace/metrics planes:
//
//   - Time comes only from the simulation clock; profiling never advances
//     it and never reads wall-clock time.
//   - A Tap (the span stack) is single-goroutine, like sim.Clock: one per
//     simulation goroutine, handed out by Profiler.Tap.
//   - Parallel sweeps give each grid cell its own Profiler and fold them
//     afterwards with Merge. Merging is a commutative per-path sum, so the
//     merged tree - and every export derived from it - is byte-identical
//     at any worker count.
//   - The disabled path is free: a nil *Profiler hands out a nil *Tap,
//     and Begin/End/Count on a nil Tap are zero-allocation no-ops.
package prof

import "repro/internal/sim"

// Subsystem names used as the first frame component. They match the
// metrics plane's subsystem labels where both planes cover a layer.
const (
	SubCPU        = "cpu"
	SubHypervisor = "hypervisor"
	SubGuestOS    = "guestos"
	SubCore       = "core"
	SubTracking   = "tracking"
	SubCRIU       = "criu"
	SubMigration  = "migration"
	SubGC         = "gc"
)

// Frame is one element of a call path: which subsystem did what.
type Frame struct {
	Sub string
	Op  string
}

// String renders the frame as "sub/op", the form used by every export.
func (f Frame) String() string { return f.Sub + "/" + f.Op }

// less orders frames lexicographically by (Sub, Op); all deterministic
// iteration over the tree uses this order.
func (f Frame) less(o Frame) bool {
	if f.Sub != o.Sub {
		return f.Sub < o.Sub
	}
	return f.Op < o.Op
}

// node is one call-path tree vertex. The zero value is a valid empty node.
type node struct {
	frame    Frame
	incl     int64 // inclusive ns: whole-span time, children included
	excl     int64 // exclusive ns: incl minus time spent in child spans
	count    int64 // completed spans on this path
	children map[Frame]*node
	// last is the child resolved most recently. Instrumented code opens
	// the same child span over and over (a page walk per guest access),
	// so comparing its frame by value spares hashing the two strings.
	last *node
}

func (n *node) child(f Frame) *node {
	if c := n.last; c != nil && c.frame == f {
		return c
	}
	c := n.children[f]
	if c == nil {
		if n.children == nil {
			n.children = make(map[Frame]*node)
		}
		c = &node{frame: f}
		n.children[f] = c
	}
	n.last = c
	return c
}

// Profiler owns a call-path tree. It is a sink, not a clock consumer:
// spans are recorded through per-goroutine Taps. Like a trace.Tracer, a
// Profiler must only be fed from one goroutine at a time; parallel sweeps
// use one Profiler per cell and Merge.
//
// All methods are nil-receiver safe.
type Profiler struct {
	root node
}

// New returns an empty profiler.
func New() *Profiler { return &Profiler{} }

// frameRec is one live (un-ended) span on a Tap's stack.
type frameRec struct {
	n     *node
	start int64 // clock at Begin
	child int64 // ns accumulated by completed child spans
}

// Tap is the per-goroutine span stack: it binds a Profiler to the
// sim.Clock of one simulation goroutine. Obtain one per VM via
// Profiler.Tap; a nil Tap (from a nil Profiler) disables profiling at
// zero cost.
type Tap struct {
	p     *Profiler
	clock *sim.Clock
	stack []frameRec
}

// Tap hands out a span stack bound to clock. Returns nil (the free
// disabled path) when the profiler is nil.
func (p *Profiler) Tap(clock *sim.Clock) *Tap {
	if p == nil || clock == nil {
		return nil
	}
	return &Tap{p: p, clock: clock, stack: make([]frameRec, 0, 32)}
}

// Span is a handle to one live span, returned by Begin and closed by End.
// It is a small value type so instrumentation stays allocation-free.
type Span struct {
	t     *Tap
	depth int // 1-based stack depth at Begin; 0 = disabled
}

// Begin opens a span for (sub, op) nested under the tap's current
// innermost live span. Safe on a nil Tap (returns a no-op Span).
func (t *Tap) Begin(sub, op string) Span {
	if t == nil {
		return Span{}
	}
	parent := &t.p.root
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].n
	}
	t.stack = append(t.stack, frameRec{
		n:     parent.child(Frame{Sub: sub, Op: op}),
		start: t.clock.Nanos(),
	})
	return Span{t: t, depth: len(t.stack)}
}

// Count records one zero-length span of (sub, op) under the tap's
// innermost live span: it bumps that path's count, exactly what Begin
// and an End at the same clock reading fold into the tree, without
// pushing a frame. Safe on a nil Tap.
func (t *Tap) Count(sub, op string) {
	if t == nil {
		return
	}
	parent := &t.p.root
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].n
	}
	parent.child(Frame{Sub: sub, Op: op}).count++
}

// End closes the span at the clock's current time, folding its elapsed
// virtual time into the tree. Any live spans opened after this one (and
// not yet ended - leaked by an early return, say) are closed first at the
// same instant, so the stack always stays well-nested. End on the zero
// Span, or a second End on the same Span, is a no-op.
func (s Span) End() {
	t := s.t
	if t == nil || s.depth == 0 || len(t.stack) < s.depth {
		return
	}
	now := t.clock.Nanos()
	for len(t.stack) >= s.depth {
		top := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		elapsed := now - top.start
		top.n.incl += elapsed
		top.n.excl += elapsed - top.child
		top.n.count++
		if n := len(t.stack); n > 0 {
			t.stack[n-1].child += elapsed
		}
	}
}

// Merge folds o's call-path tree into p (a per-path sum of incl/excl/
// count). Merging is commutative and associative, so folding per-cell
// profilers in grid order yields the same tree at any worker count. o is
// left unmodified; a nil p or o is a no-op.
func (p *Profiler) Merge(o *Profiler) {
	if p == nil || o == nil {
		return
	}
	mergeNode(&p.root, &o.root)
}

func mergeNode(dst, src *node) {
	dst.incl += src.incl
	dst.excl += src.excl
	dst.count += src.count
	for f, sc := range src.children {
		mergeNode(dst.child(f), sc)
	}
}
