// Package tracking provides the uniform Tracker-side interface over the
// four dirty page tracking techniques the paper compares - /proc, ufd,
// SPML, EPML - plus the hypothetical zero-cost oracle of §VI-B.
//
// Every technique follows the paper's four-phase Tracker structure
// (Fig. 1): initialization (Init), monitoring (implicit: the tracked
// process runs), collection (Collect), and exploitation (the caller's
// business: checkpointing, GC marking, ...).
package tracking

import (
	"sync/atomic"
	"time"

	"repro/internal/costmodel"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/trace"
)

// pagesReported counts dirty page addresses delivered by Collect across
// every technique in the process - the numerator of the benchmark
// harness's pages-tracked/sec throughput metric. One atomic add per
// collection round (not per page), so the hot path never sees it.
var pagesReported atomic.Int64

// PagesReported returns the number of dirty page addresses Collect calls
// have delivered process-wide since the last reset.
func PagesReported() int64 { return pagesReported.Load() }

// ResetPagesReported zeroes the process-wide page counter. Benchmark
// harnesses call it before a measured run.
func ResetPagesReported() { pagesReported.Store(0) }

// Stats accumulates the technique-attributed virtual time and counts: the
// measured E(C_x) the formula engine cross-checks in Table IV.
type Stats struct {
	InitTime    time.Duration // phase 1
	CollectTime time.Duration // phase 3, cumulative
	CloseTime   time.Duration
	Collections int
	Reported    int64 // dirty page addresses returned, cumulative
}

// TechniqueTime returns the technique's total own time, E(C_x).
func (s Stats) TechniqueTime() time.Duration { return s.InitTime + s.CollectTime + s.CloseTime }

// Technique is one dirty page tracking method bound to one tracked process.
type Technique interface {
	// Name returns the paper's name for the technique.
	Name() string
	// Kind returns the cost-model identity of the technique.
	Kind() costmodel.Technique
	// Init performs the initialization phase (clear_refs, ufd
	// registration, PML arming...). Monitoring starts when Init returns.
	Init() error
	// Collect returns the addresses of pages dirtied since Init or the
	// previous Collect, de-duplicated, and re-arms monitoring.
	Collect() ([]mem.GVA, error)
	// Close ends monitoring and releases technique resources.
	Close() error
	// Stats returns the accumulated phase times and counts.
	Stats() Stats
}

// watch binds a technique's phase accounting to the tracked process's
// vCPU: its clock, and its planes through cpu.VCPU.Begin/Event.
type watch struct {
	clock *sim.Clock
	vcpu  *cpu.VCPU
}

func (w watch) measure(dst *time.Duration, fn func() error) error {
	sw := sim.StartWatch(w.clock)
	err := fn()
	*dst += sw.Elapsed()
	return err
}

// phase runs fn under a tracking span, adds its time to dst and, on
// success, reports it as one event of kind. arg, evaluated after fn so it
// can report results (pages collected), supplies the event's Arg; nil
// means the technique's cost-model id.
func (w watch) phase(dst *time.Duration, kind trace.Kind, tech costmodel.Technique,
	arg func() int64, fn func() error) error {
	sp := w.vcpu.Begin(prof.SubTracking, phaseOp(kind))
	if err := fn(); err != nil {
		*dst += sp.End()
		return err
	}
	a := int64(tech)
	if arg != nil {
		a = arg()
		if kind == trace.KindTrackCollect {
			pagesReported.Add(a)
		}
	}
	*dst += sp.Event(kind, 0, a)
	return nil
}

// phaseOp maps a tracking-phase trace kind to its profiler span op.
func phaseOp(kind trace.Kind) string {
	switch kind {
	case trace.KindTrackInit:
		return "init"
	case trace.KindTrackCollect:
		return "collect"
	case trace.KindTrackClose:
		return "close"
	}
	return kind.String()
}
