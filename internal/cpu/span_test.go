package cpu

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/trace"
)

// observation is one metrics-bridge observation as an EventObserver sees it.
type observation struct {
	vm             int32
	k              trace.Kind
	now, cost, arg int64
}

type recordingObserver struct{ got []observation }

func (o *recordingObserver) ObserveKind(vm int32, k trace.Kind, now, cost, arg int64) {
	o.got = append(o.got, observation{vm, k, now, cost, arg})
}

// planes is a bare vCPU wired to all three emission planes: a memory
// tracer, a metrics bridge with an observer, and a profiler tap.
type planes struct {
	v    *VCPU
	sink *trace.Memory
	reg  *metrics.Registry
	obs  *recordingObserver
	prof *prof.Profiler
}

func newPlanes() *planes {
	p := &planes{sink: &trace.Memory{}, reg: metrics.NewRegistry(), obs: &recordingObserver{}, prof: prof.New()}
	p.v = &VCPU{ID: 3, Clock: &sim.Clock{}}
	p.v.SetTracer(trace.New(p.sink, 0))
	p.v.Met = metrics.NewEvents(p.reg)
	p.v.Met.SetObserver(3, p.obs)
	p.v.Prof = p.prof.Tap(p.v.Clock)
	return p
}

func (p *planes) records(t *testing.T) []trace.Record {
	t.Helper()
	if err := p.v.tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	return p.sink.Records()
}

func TestSpanEventFeedsEveryPlane(t *testing.T) {
	p := newPlanes()
	p.v.Clock.Advance(100)
	sp := p.v.Begin(prof.SubCore, "ring_copy")
	p.v.Clock.Advance(40)
	if d := sp.Event(trace.KindRingCopy, 0x5000, 7); d != 40 {
		t.Fatalf("Span.Event returned %v, want 40ns", d)
	}
	p.v.Clock.Advance(5) // after the span: must not leak into any plane

	want := trace.Record{Kind: trace.KindRingCopy, VM: 3, TS: 100, Cost: 40, Addr: 0x5000, Arg: 7}
	if recs := p.records(t); len(recs) != 1 || recs[0] != want {
		t.Fatalf("trace records = %+v, want exactly [%+v]", recs, want)
	}
	wantObs := observation{vm: 3, k: trace.KindRingCopy, now: 140, cost: 40, arg: 7}
	if len(p.obs.got) != 1 || p.obs.got[0] != wantObs {
		t.Fatalf("metrics observations = %+v, want exactly [%+v]", p.obs.got, wantObs)
	}
	sub, label := metrics.KindSubsystem(trace.KindRingCopy), trace.KindRingCopy.String()
	if n := p.reg.Counter(sub, metrics.NameEvents, label).Value(); n != 1 {
		t.Errorf("events counter = %d, want 1", n)
	}
	if h := p.reg.Histogram(sub, metrics.NameEventCostNs, label); h.Count() != 1 || h.Sum() != 40 {
		t.Errorf("cost histogram count/sum = %d/%d, want 1/40", h.Count(), h.Sum())
	}
	if a := p.reg.Counter(sub, metrics.NameEventArgSum, label).Value(); a != 7 {
		t.Errorf("arg counter = %d, want 7", a)
	}
	paths := p.prof.Tree().Paths()
	if len(paths) != 1 || len(paths[0].Path) != 1 ||
		paths[0].Path[0] != (prof.Frame{Sub: prof.SubCore, Op: "ring_copy"}) ||
		paths[0].Count != 1 || paths[0].Incl != 40 {
		t.Fatalf("profile paths = %+v, want one core/ring_copy path, count 1, incl 40", paths)
	}
}

func TestSpanEndTimesWithoutReporting(t *testing.T) {
	p := newPlanes()
	sp := p.v.Begin(prof.SubGC, "track")
	p.v.Clock.Advance(25)
	if d := sp.End(); d != 25 {
		t.Fatalf("Span.End returned %v, want 25ns", d)
	}
	if recs := p.records(t); len(recs) != 0 || len(p.obs.got) != 0 {
		t.Fatalf("End reported an event: trace %v, metrics %v", recs, p.obs.got)
	}
	if paths := p.prof.Tree().Paths(); len(paths) != 1 || paths[0].Incl != 25 {
		t.Fatalf("profile paths = %+v, want one 25ns path", paths)
	}
}

func TestEventMaskedKindStillObserved(t *testing.T) {
	p := newPlanes()
	p.v.tracer.Disable(trace.KindPMLLog)
	p.v.Clock.Advance(9)
	// The observation time is the clock at the call, not TS+Cost.
	p.v.Event(trace.KindPMLLog, 2, 5, 0x1000, 0)
	if recs := p.records(t); len(recs) != 0 {
		t.Fatalf("masked kind traced: %+v", recs)
	}
	want := observation{vm: 3, k: trace.KindPMLLog, now: 9, cost: 5}
	if len(p.obs.got) != 1 || p.obs.got[0] != want {
		t.Fatalf("metrics observations = %+v, want exactly [%+v]", p.obs.got, want)
	}
}

func TestEventNilPlanesNoop(t *testing.T) {
	v := &VCPU{Clock: &sim.Clock{}}
	v.Event(trace.KindGuestPF, 0, 10, 0x2000, 1)
	sp := v.Begin(prof.SubCPU, "guest_pf")
	v.Clock.Advance(12)
	if d := sp.Event(trace.KindGuestPF, 0x2000, 1); d != 12 {
		t.Fatalf("Span.Event with planes off returned %v, want 12ns", d)
	}
	if now := v.Clock.Nanos(); now != 12 {
		t.Fatalf("observing advanced the clock to %d, want 12", now)
	}
}

// emitOnce is one fused span plus one explicit event: the whole emission
// surface a layer uses.
func emitOnce(v *VCPU) time.Duration {
	sp := v.Begin(prof.SubCPU, "guest_pf")
	v.Clock.Advance(3)
	d := sp.Event(trace.KindGuestPF, 0x3000, 1)
	v.Event(trace.KindPMLLog, v.Clock.Nanos()-2, 2, 0x4000, 0)
	return d
}

func TestEventZeroAllocDisabled(t *testing.T) {
	v := &VCPU{Clock: &sim.Clock{}}
	if allocs := testing.AllocsPerRun(1000, func() { emitOnce(v) }); allocs != 0 {
		t.Fatalf("disabled Event/Span path allocates %.1f times per run, want 0", allocs)
	}
}

func TestEventZeroAllocEnabled(t *testing.T) {
	p := newPlanes()
	p.v.Met.SetObserver(3, nil)
	// The tracer's ring holds DefaultRingRecords; two records per run stay
	// below it, so no flush reaches the (allocating) memory sink.
	if allocs := testing.AllocsPerRun(1000, func() { emitOnce(p.v) }); allocs != 0 {
		t.Fatalf("enabled Event/Span path allocates %.1f times per run, want 0", allocs)
	}
}
