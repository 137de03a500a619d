package cpu

import (
	"time"

	"repro/internal/prof"
	"repro/internal/trace"
)

// Event reports one observed event of kind k to this vCPU's planes: a trace
// record {TS: ts, Cost: cost, Addr: addr, Arg: arg} when k is traced, and
// one metrics observation of (k, cost, arg) at the clock's current time -
// which the monitor sees through the bridge's observer hook. It is the only
// path to the vCPU's tracer, so both planes get identical values from one
// call. With tracing and metrics off it is two inlined nil checks.
func (v *VCPU) Event(k trace.Kind, ts, cost int64, addr uint64, arg int64) {
	if v.tracer != nil || v.Met != nil {
		v.event(k, ts, cost, addr, arg)
	}
}

func (v *VCPU) event(k trace.Kind, ts, cost int64, addr uint64, arg int64) {
	if tr := v.tracer; tr.Enabled(k) {
		tr.Emit(trace.Record{Kind: k, VM: int32(v.ID), TS: ts, Cost: cost, Addr: addr, Arg: arg})
	}
	v.Met.Observe(k, v.Clock.Nanos(), cost, arg)
}

// SetTracer attaches tr as this vCPU's trace plane (nil detaches). Nothing
// outside this package can read it back: layers trace only through Event.
func (v *VCPU) SetTracer(tr *trace.Tracer) { v.tracer = tr }

// Span is one timed interval on a vCPU: a profiler frame and the virtual
// time it opened at. It is a small value, so timing allocates nothing.
type Span struct {
	v     *VCPU
	sp    prof.Span
	start int64
}

// Begin opens a (sub, op) profiler frame and starts timing the interval.
func (v *VCPU) Begin(sub, op string) Span {
	return Span{v: v, sp: v.Prof.Begin(sub, op), start: v.Clock.Nanos()}
}

// End closes the span's profiler frame and returns the virtual time elapsed
// since Begin. Ending an already ended span is a profiler no-op.
func (s Span) End() time.Duration {
	s.sp.End()
	return time.Duration(s.v.Clock.Nanos() - s.start)
}

// Event ends the span and reports the interval as one event of kind k
// (TS = the span's start, Cost = its elapsed time). It returns the elapsed
// time, so a stats duration and the event come from one measurement.
func (s Span) Event(k trace.Kind, addr uint64, arg int64) time.Duration {
	d := s.End()
	s.v.Event(k, s.start, int64(d), addr, arg)
	return d
}
