package metrics

import "repro/internal/trace"

// Subsystem names used for event-derived metrics. One table here keeps
// the (subsystem, name, label) namespace consistent across exports,
// oohstat rendering and the trace-consistency cross-check.
const (
	SubCPU        = "cpu"
	SubHypervisor = "hypervisor"
	SubGuestOS    = "guestos"
	SubCore       = "core"
	SubTracking   = "tracking"
	SubCRIU       = "criu"
	SubGC         = "gc"
	SubFaults     = "faults"
	SubMigration  = "migration"
	SubMonitor    = "monitor"
)

// kindSubsystem maps every trace kind to the subsystem that owns its
// metrics, mirroring the emitting-layer grouping in internal/trace.
var kindSubsystem = map[trace.Kind]string{
	trace.KindVMExit:         SubCPU,
	trace.KindHypercall:      SubCPU,
	trace.KindPMLFull:        SubCPU,
	trace.KindEPTViolation:   SubCPU,
	trace.KindGuestPF:        SubCPU,
	trace.KindPMLLog:         SubCPU,
	trace.KindEPMLLog:        SubCPU,
	trace.KindEPMLFullIRQ:    SubCPU,
	trace.KindSPPViolation:   SubCPU,
	trace.KindContextSwitch:  SubGuestOS,
	trace.KindIRQ:            SubGuestOS,
	trace.KindDemandFault:    SubGuestOS,
	trace.KindSoftDirtyFault: SubGuestOS,
	trace.KindUfdFault:       SubGuestOS,
	trace.KindClearRefs:      SubGuestOS,
	trace.KindRingCopy:       SubCore,
	trace.KindPTWalk:         SubCore,
	trace.KindReverseMap:     SubCore,
	trace.KindRingDrain:      SubCore,
	trace.KindPMLDrain:       SubHypervisor,
	trace.KindTrackInit:      SubTracking,
	trace.KindTrackCollect:   SubTracking,
	trace.KindTrackClose:     SubTracking,
	trace.KindCRIUMD:         SubCRIU,
	trace.KindCRIUMW:         SubCRIU,
	trace.KindGCMark:         SubGC,
	trace.KindGCSweep:        SubGC,
	trace.KindGCCycle:        SubGC,
	trace.KindFault:          SubFaults,
	trace.KindTrackRetry:     SubTracking,
	trace.KindTrackDegrade:   SubTracking,
	trace.KindTrackRescan:    SubTracking,
	trace.KindMigRetry:       SubMigration,
	trace.KindMigNack:        SubMigration,
	trace.KindMigAbort:       SubMigration,
	trace.KindMigResume:      SubMigration,
	trace.KindMonAlert:       SubMonitor,
	trace.KindMonPredict:     SubMonitor,
}

// KindSubsystem returns the subsystem owning metrics for kind k.
func KindSubsystem(k trace.Kind) string {
	if s, ok := kindSubsystem[k]; ok {
		return s
	}
	return "other"
}

// Canonical event-derived metric names. For each trace kind k the bridge
// maintains, in k's subsystem:
//
//	events{label=k}            counter: records observed
//	event_cost_ns{label=k}     histogram: per-record virtual cost
//	event_arg_total{label=k}   counter: summed Arg (entries, pages, ...)
//
// These mirror trace.KindSummary's Count/Cost/Arg exactly, which is what
// the metrics-vs-trace consistency test in internal/experiments checks.
const (
	NameEvents       = "events"
	NameEventCostNs  = "event_cost_ns"
	NameEventArgSum  = "event_arg_total"
	NameVMExitsTotal = "vmexits_total"
)

// EventObserver receives a copy of every observation a bridge records,
// tagged with the VM the bridge belongs to. It is the feed for online
// consumers (internal/monitor's rate estimators) that need the event
// stream, not just its aggregates, without adding instrumentation sites.
// Implementations must be deterministic and must never advance the clock.
type EventObserver interface {
	ObserveKind(vm int32, k trace.Kind, now, cost, arg int64)
}

// Events is the hot-path bridge from instrumentation sites to a Registry.
// It pre-resolves one (counter, cost histogram, arg counter) triple per
// trace kind so Observe is array indexing plus integer updates - no map
// lookups, no allocations. A nil *Events is a valid disabled bridge whose
// methods are single-branch no-ops, like a nil *trace.Tracer.
type Events struct {
	reg     *Registry
	counts  [64]*Counter
	costs   [64]*Histogram
	args    [64]*Counter
	vmexits *Counter // exit-kind records, all reasons pooled

	vm  int32         // VM id stamped onto forwarded observations
	obs EventObserver // optional online consumer; nil when absent
}

// NewEvents returns the bridge for r, or nil when r is nil (disabled).
func NewEvents(r *Registry) *Events {
	if r == nil {
		return nil
	}
	e := &Events{reg: r}
	for k := trace.Kind(0); int(k) < trace.NumKinds(); k++ {
		sub := KindSubsystem(k)
		e.counts[k] = r.Counter(sub, NameEvents, k.String())
		e.costs[k] = r.Histogram(sub, NameEventCostNs, k.String())
		e.args[k] = r.Counter(sub, NameEventArgSum, k.String())
	}
	e.vmexits = r.Counter(SubCPU, NameVMExitsTotal, "")
	return e
}

// Registry returns the backing registry (nil for a disabled bridge).
func (e *Events) Registry() *Registry {
	if e == nil {
		return nil
	}
	return e.reg
}

// Observe records one event of kind k: its per-record cost into the kind's
// histogram, its Arg into the kind's arg counter, and a tick of the
// virtual-time sampler. Simulated layers do not call it directly: the
// vCPU's Event makes this call with the same (kind, cost, arg) it hands to
// trace.Tracer.Emit, which is what keeps the two planes equal.
func (e *Events) Observe(k trace.Kind, now, cost, arg int64) {
	if e == nil {
		return
	}
	e.counts[k].Inc()
	e.costs[k].Observe(cost)
	e.args[k].Add(arg)
	switch k {
	case trace.KindVMExit, trace.KindHypercall, trace.KindPMLFull, trace.KindEPTViolation:
		// Every vmexit surfaces as exactly one of these kinds, so the
		// pooled total is the run's vmexit rate series.
		e.vmexits.Inc()
	}
	e.reg.Tick(now)
	if e.obs != nil {
		e.obs.ObserveKind(e.vm, k, now, cost, arg)
	}
}

// SetObserver installs an online consumer that is forwarded every
// observation, tagged with vm. A nil observer detaches. Nil-receiver safe.
func (e *Events) SetObserver(vm int32, o EventObserver) {
	if e == nil {
		return
	}
	e.vm = vm
	e.obs = o
}

// Count bumps a labeled counter by n - the slow(er) path for metrics that
// are not 1:1 with a trace kind (vmexits by reason, hypercalls by type,
// fault injections by point). One map lookup; still allocation-free for
// existing series.
func (e *Events) Count(subsystem, name, label string, n int64) {
	if e == nil {
		return
	}
	e.reg.Counter(subsystem, name, label).Add(n)
}

// SetGauge installs a labeled gauge value (PML buffer occupancy, active
// rung, ring depth).
func (e *Events) SetGauge(subsystem, name, label string, v int64) {
	if e == nil {
		return
	}
	e.reg.Gauge(subsystem, name, label).Set(v)
}

// WatchDefaults installs the tentpole's four default time-series on the
// registry's sampler: cumulative dirty pages (rate by differencing), PML
// buffer occupancy, cumulative vmexits, and the latest collection latency.
// Call after Registry.NewSampler; a nil receiver or absent sampler is a
// no-op.
func (e *Events) WatchDefaults() {
	if e == nil || e.reg.sampler == nil {
		return
	}
	s := e.reg.sampler
	s.Watch("dirty_pages_total", e.args[trace.KindTrackCollect])
	s.Watch("pml_buffer_occupancy", e.reg.Gauge(SubCPU, "pml_buffer_occupancy", ""))
	s.Watch("vmexits_total", e.vmexits)
	collect := e.costs[trace.KindTrackCollect]
	s.Watch("collect_latency_ns", ValuerFunc(collect.Last))
}
