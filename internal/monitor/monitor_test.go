package monitor

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// ms converts a millisecond count to virtual ns.
func ms(n int64) int64 { return n * time.Millisecond.Nanoseconds() }

// us converts a microsecond count to virtual ns.
func us(n int64) int64 { return n * time.Microsecond.Nanoseconds() }

// feedPML delivers one pml_log event per 100us on vm 0 over [from, to],
// 10 events (pages) per virtual ms - a steady 10000 pages/sec stream.
func feedPML(m *Monitor, from, to int64) {
	for t := from; t <= to; t += us(100) {
		m.ObserveKind(0, trace.KindPMLLog, t, 0, 0)
	}
}

// idle advances the monitor's clock without dirty events: vm_exit records
// tick the evaluator but feed no estimator.
func idle(m *Monitor, from, to int64) {
	for t := from; t <= to; t += us(100) {
		m.ObserveKind(0, trace.KindVMExit, t, 0, 0)
	}
}

// TestEstimatorRatesSteadyStream: a steady 10 pages/ms stream must read
// exactly 10000 pages/sec on the windowed estimator (integer math, no
// rounding slop at these values) and publish both gauges.
func TestEstimatorRatesSteadyStream(t *testing.T) {
	reg := metrics.NewRegistry()
	m := New(Config{})
	m.Attach(nil, reg)

	feedPML(m, 0, ms(10))

	snap := m.Snapshot()
	if len(snap.Estimators) != 1 {
		t.Fatalf("estimators = %+v, want exactly vm0/pml", snap.Estimators)
	}
	e := snap.Estimators[0]
	if e.Name != "vm0/pml" {
		t.Fatalf("estimator name = %q, want vm0/pml", e.Name)
	}
	if e.Pages != 101 { // t=0..10ms inclusive at 100us steps
		t.Errorf("pages = %d, want 101", e.Pages)
	}
	// Window is 8ms: at the 10ms fold the anchor sits at 2ms, 80 pages
	// over 8ms = 10000 pages/sec exactly.
	if e.RatePPS != 10000 {
		t.Errorf("windowed rate = %d, want 10000", e.RatePPS)
	}
	if e.EWMAPPS <= 0 || e.EWMAPPS > 10000 {
		t.Errorf("ewma = %d, want in (0, 10000]", e.EWMAPPS)
	}
	// One rate point per evaluation tick: t=0..10ms at 1ms = 11 points.
	if len(e.Rate) != 11 {
		t.Errorf("rate series has %d points, want 11", len(e.Rate))
	}
	if g := reg.LookupGauge(metrics.SubMonitor, "dirty_rate_pps", "vm0/pml"); g.Value() != 10000 {
		t.Errorf("dirty_rate_pps gauge = %d, want 10000", g.Value())
	}
	if g := reg.LookupGauge(metrics.SubMonitor, "dirty_rate_ewma_pps", "vm0/pml"); g.Value() != e.EWMAPPS {
		t.Errorf("ewma gauge = %d, want %d", g.Value(), e.EWMAPPS)
	}
}

// TestEstimatorPerSourceAndTechnique: distinct sources get distinct
// estimators, and track_collect page counts attribute to the technique the
// VM's last track_init armed.
func TestEstimatorPerSourceAndTechnique(t *testing.T) {
	reg := metrics.NewRegistry()
	m := New(Config{})
	m.Attach(nil, reg)

	m.ObserveKind(0, trace.KindPMLLog, us(1), 0, 0)
	m.ObserveKind(0, trace.KindEPMLLog, us(2), 0, 0)
	m.ObserveKind(1, trace.KindSoftDirtyFault, us(3), 0, 0)
	m.ObserveKind(1, trace.KindUfdFault, us(4), 0, 0)
	m.ObserveKind(0, trace.KindTrackInit, us(5), 0, 3) // arm technique 3 on vm0
	m.ObserveKind(0, trace.KindTrackCollect, us(6), 0, 42)
	m.ObserveKind(0, trace.KindTrackCollect, us(7), 0, 0) // empty collection: no bump

	snap := m.Snapshot()
	byName := map[string]int64{}
	for _, e := range snap.Estimators {
		byName[e.Name] = e.Pages
	}
	want := map[string]int64{
		"vm0/pml": 1, "vm0/epml": 1, "vm1/softdirty": 1, "vm1/ufd": 1,
	}
	for name, pages := range want {
		if byName[name] != pages {
			t.Errorf("%s pages = %d, want %d (have %v)", name, byName[name], pages, byName)
		}
	}
	// The technique estimator exists with the collect's page count.
	var tech *EstimatorSnap
	for i := range snap.Estimators {
		if len(snap.Estimators[i].Name) > 8 && snap.Estimators[i].Name[:8] == "vm0/tech" {
			tech = &snap.Estimators[i]
		}
	}
	if tech == nil {
		t.Fatalf("no technique estimator in %v", byName)
	}
	if tech.Pages != 42 {
		t.Errorf("technique pages = %d, want 42", tech.Pages)
	}
}

// TestRuleFiringAndResolvingTimeline: a threshold rule with a For duration
// fires once the storm has held long enough, resolves when it passes, and
// both transitions land on the timeline and in the trace as mon_alert
// records.
func TestRuleFiringAndResolvingTimeline(t *testing.T) {
	rules, err := ParseRules("monitor/dirty_rate_pps{vm0/pml} > 5000 for 2ms")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	mem := &trace.Memory{}
	tr := trace.New(mem, 0)
	m := New(Config{Rules: rules})
	m.Attach(tr, reg)

	feedPML(m, 0, ms(6))   // storm: 10000 pps, over threshold from the 1ms fold
	idle(m, ms(6), ms(20)) // storm ends; the window drains the rate to zero
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	alerts := m.Alerts()
	if len(alerts) != 2 {
		t.Fatalf("timeline = %+v, want [firing, resolved]", alerts)
	}
	fire, res := alerts[0], alerts[1]
	if fire.State != StateFiring || res.State != StateResolved {
		t.Fatalf("states = %s, %s", fire.State, res.State)
	}
	// Rate first exceeds the threshold at the 1ms fold; For=2ms holds it
	// until the 3ms fold.
	if fire.TS != ms(3) {
		t.Errorf("fired at %d ns, want %d", fire.TS, ms(3))
	}
	if res.TS <= fire.TS {
		t.Errorf("resolved at %d ns, not after firing (%d)", res.TS, fire.TS)
	}
	if fire.Rule != rules[0].String() {
		t.Errorf("alert rule = %q, want canonical %q", fire.Rule, rules[0].String())
	}
	if fire.Value <= 5000 {
		t.Errorf("firing value = %d, want > threshold", fire.Value)
	}

	var monAlerts int
	for _, rec := range mem.Records() {
		if rec.Kind == trace.KindMonAlert {
			monAlerts++
		}
	}
	if monAlerts != 2 {
		t.Errorf("trace has %d mon_alert records, want 2", monAlerts)
	}
	// The monitor's own events bridge counts its emissions, so the kind
	// coverage cross-check sees mon_alert under canned runs.
	if c := reg.LookupCounter(metrics.SubMonitor, metrics.NameEvents, trace.KindMonAlert.String()); c.Value() != 2 {
		t.Errorf("monitor/events{mon_alert} = %d, want 2", c.Value())
	}
}

// TestRuleOnMissingSeries: rules may reference series that never
// materialize; they read zero and never fire (or fire, for inverted ops)
// without creating registry entries.
func TestRuleOnMissingSeries(t *testing.T) {
	rules, err := ParseRules("nosuch/series > 5")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	m := New(Config{Rules: rules})
	m.Attach(nil, reg)
	idle(m, 0, ms(5))
	if alerts := m.Alerts(); len(alerts) != 0 {
		t.Errorf("alerts = %+v, want none", alerts)
	}
	if c := reg.LookupCounter("nosuch", "series", ""); c != nil {
		t.Error("rule evaluation created the counter it watched")
	}
	if g := reg.LookupGauge("nosuch", "series", ""); g != nil {
		t.Error("rule evaluation created the gauge it watched")
	}
}

// TestTickScheduleMirrorsSampler: evaluations happen at most once per
// interval with no catch-up bursts, and a backwards clock (monitor reused
// across machines) re-anchors instead of panicking or bursting.
func TestTickScheduleMirrorsSampler(t *testing.T) {
	reg := metrics.NewRegistry()
	m := New(Config{})
	m.Attach(nil, reg)

	// Dense events inside one interval: exactly one point (the anchor).
	for i := int64(0); i < 10; i++ {
		m.ObserveKind(0, trace.KindPMLLog, us(i), 0, 0)
	}
	if n := len(m.Snapshot().Estimators[0].Rate); n != 1 {
		t.Fatalf("dense burst produced %d points, want 1", n)
	}
	// A long gap then one event: exactly one more point, no catch-up.
	m.ObserveKind(0, trace.KindPMLLog, ms(50), 0, 0)
	if n := len(m.Snapshot().Estimators[0].Rate); n != 2 {
		t.Fatalf("after gap: %d points, want 2", n)
	}
	// Clock restart (fresh machine, same monitor): re-anchor, keep counts.
	m.ObserveKind(0, trace.KindPMLLog, us(3), 0, 0)
	snap := m.Snapshot()
	if snap.Estimators[0].Pages != 12 {
		t.Errorf("pages = %d, want cumulative 12 across the restart", snap.Estimators[0].Pages)
	}
}

// TestBurnAverageWindow: burn rules average the burn observations inside
// their trailing window only.
func TestBurnAverageWindow(t *testing.T) {
	reg := metrics.NewRegistry()
	m := New(Config{})
	m.Attach(nil, reg)
	m.burn = []metrics.Point{{TS: us(100), V: 500}, {TS: us(600), V: 1500}, {TS: us(900), V: 2500}}
	if avg := m.burnAverage(us(500), us(1000)); avg != 2000 {
		t.Errorf("burnAverage(500us,1ms] = %d, want 2000", avg)
	}
	if avg := m.burnAverage(us(0), us(1000)); avg != 1500 {
		t.Errorf("burnAverage(0,1ms] = %d, want 1500", avg)
	}
	if avg := m.burnAverage(us(1000), us(2000)); avg != 0 {
		t.Errorf("burnAverage over empty window = %d, want 0", avg)
	}
}

// TestAttachRebindsPlanes: re-attaching to a new registry re-resolves the
// estimator gauges so a bench sweep reusing one monitor across scenario
// machines keeps publishing.
func TestAttachRebindsPlanes(t *testing.T) {
	regA := metrics.NewRegistry()
	m := New(Config{})
	m.Attach(nil, regA)
	m.ObserveKind(0, trace.KindPMLLog, us(1), 0, 0)

	regB := metrics.NewRegistry()
	m.Attach(nil, regB)
	m.ObserveKind(0, trace.KindPMLLog, ms(1), 0, 0)
	if g := regB.LookupGauge(metrics.SubMonitor, "dirty_rate_pps", "vm0/pml"); g == nil {
		t.Fatal("gauges not re-resolved against the new registry")
	}
}

// TestThinPtsNoCatchUp pins the series-thinning rule shared with sampler
// merges: at most one point per interval, anchored at the first point.
func TestThinPtsNoCatchUp(t *testing.T) {
	pts := []metrics.Point{{TS: 0}, {TS: 5}, {TS: 10}, {TS: 12}, {TS: 35}}
	got := metrics.MergePoints(pts, nil, 10)
	want := []metrics.Point{{TS: 0}, {TS: 10}, {TS: 35}}
	if len(got) != len(want) {
		t.Fatalf("MergePoints = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i].TS != want[i].TS {
			t.Fatalf("MergePoints = %+v, want %+v", got, want)
		}
	}
}
