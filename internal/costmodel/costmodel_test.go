package costmodel

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCurveHitsSamplePoints(t *testing.T) {
	m := Default()
	// M5 at the exact sample sizes must return the paper's values.
	cases := []struct {
		mb   uint64
		want time.Duration
	}{
		{1, 3 * time.Microsecond},
		{100, 3340 * time.Microsecond},
		{1024, 33580 * time.Microsecond},
	}
	for _, c := range cases {
		got := m.PFHKernel.Total(c.mb << 20)
		if diff := got - c.want; diff < -time.Microsecond || diff > time.Microsecond {
			t.Errorf("PFHKernel(%dMB) = %v, want %v", c.mb, got, c.want)
		}
	}
}

func TestCurveMonotone(t *testing.T) {
	m := Default()
	curves := []Curve{m.ClearRefs, m.PTWalkUser, m.PFHKernel, m.PFHUser, m.RBCopy, m.ReverseMap}
	for ci, c := range curves {
		prev := time.Duration(0)
		for mb := uint64(1); mb <= 2048; mb *= 2 {
			got := c.Total(mb << 20)
			if got < prev {
				t.Errorf("curve %d not monotone at %dMB: %v < %v", ci, mb, got, prev)
			}
			prev = got
		}
	}
}

func TestCurveEdges(t *testing.T) {
	m := Default()
	if m.PFHKernel.Total(0) != 0 {
		t.Error("Total(0) != 0")
	}
	// Below the first sample: linear scale-down.
	half := m.PFHKernel.Total(512 << 10)
	full := m.PFHKernel.Total(1 << 20)
	if half <= 0 || half >= full {
		t.Errorf("sub-sample scaling wrong: %v vs %v", half, full)
	}
	// Above the last sample: extrapolation keeps growing.
	if m.PFHKernel.Total(2<<30) <= m.PFHKernel.Total(1<<30) {
		t.Error("extrapolation not growing")
	}
}

// TestCurveOutOfRange is the regression test for the negative-extrapolation
// bug: with a decreasing final segment, far-above-range sizes used to go
// negative (and panic sim.Clock.Advance). Both out-of-range sides are
// table-driven here.
func TestCurveOutOfRange(t *testing.T) {
	increasing := NewCurve(
		[]float64{10, 100, 1000},
		[]time.Duration{10 * time.Microsecond, 100 * time.Microsecond, time.Millisecond})
	// Final segment slope: (500us-1ms)/(1000MB-100MB) < 0.
	decreasing := NewCurve(
		[]float64{10, 100, 1000},
		[]time.Duration{100 * time.Microsecond, time.Millisecond, 500 * time.Microsecond})

	cases := []struct {
		name      string
		c         Curve
		sizeBytes uint64
		want      time.Duration
	}{
		{"below first sample scales proportionally", increasing, 1 << 20, time.Microsecond},
		{"below first sample half", increasing, 5 << 20, 5 * time.Microsecond},
		{"at last sample", increasing, 1000 << 20, time.Millisecond},
		{"above range follows final slope", increasing, 2000 << 20, 2 * time.Millisecond},
		{"decreasing: just above range still positive", decreasing, 1100 << 20,
			500*time.Microsecond - 55*time.Microsecond - 555*time.Nanosecond},
		{"decreasing: far above range clamps at zero", decreasing, 100 << 30, 0},
	}
	for _, tc := range cases {
		got := tc.c.Total(tc.sizeBytes)
		if diff := got - tc.want; diff < -time.Microsecond || diff > time.Microsecond {
			t.Errorf("%s: Total(%d) = %v, want %v", tc.name, tc.sizeBytes, got, tc.want)
		}
	}

	// The invariant that matters to the simulator: no size may ever yield a
	// negative cost (sim.Clock.Advance panics on negative durations).
	for mb := uint64(1); mb <= 1<<20; mb *= 2 {
		for _, c := range []Curve{increasing, decreasing} {
			if got := c.Total(mb << 20); got < 0 {
				t.Fatalf("Total(%dMB) = %v, negative", mb, got)
			}
		}
	}
}

func TestPerPage(t *testing.T) {
	m := Default()
	total := m.PTWalkUser.Total(1 << 30)
	per := m.PTWalkUser.PerPage(1 << 30)
	pages := time.Duration(1 << 30 / 4096)
	if per*pages > total+total/100 || per*pages < total-total/100 {
		t.Errorf("PerPage*pages = %v, total = %v", per*pages, total)
	}
	// PerPage memoizes one size at a time: interleaved sizes on one curve
	// must each read what a fresh curve computes.
	for _, size := range []uint64{1 << 20, 250 << 20, 1 << 20, 3 << 12, 250 << 20, 3 << 12, 1 << 30} {
		if got, want := m.PTWalkUser.PerPage(size), Default().PTWalkUser.PerPage(size); got != want {
			t.Errorf("PerPage(%d) = %v after other sizes, fresh curve says %v", size, got, want)
		}
	}
}

// TestPerPageConcurrent charges one shared Model at a different size from
// each of four goroutines, as grid workers forked from one snapshot do.
// Run with -race.
func TestPerPageConcurrent(t *testing.T) {
	m := Default()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		size := uint64(g+1) << 24
		want := Default().PFHKernel.PerPage(size)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if got := m.PFHKernel.PerPage(size); got != want {
					t.Errorf("PerPage(%d) = %v, want %v", size, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestMalformedCurvePanics(t *testing.T) {
	for _, tc := range []struct {
		sizes []float64
		costs []time.Duration
	}{
		{[]float64{1}, []time.Duration{1}},
		{[]float64{1, 2}, []time.Duration{1}},
		{[]float64{2, 1}, []time.Duration{1, 2}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCurve(%v) did not panic", tc.sizes)
				}
			}()
			NewCurve(tc.sizes, tc.costs)
		}()
	}
}

func TestMetricClassification(t *testing.T) {
	memDep := []Metric{M2IoctlWriteProtect, M5PFHKernel, M6PFHUser, M14DisablePMLLogging,
		M15ClearRefs, M16PTWalkUser, M17ReverseMapping, M18RingBufferCopy}
	for _, m := range memDep {
		if !m.DependsOnMemory() {
			t.Errorf("%v should depend on memory", m)
		}
	}
	for _, m := range []Metric{M1ContextSwitch, M7VMRead, M9HypInitPML, M13EnablePMLLogging} {
		if m.DependsOnMemory() {
			t.Errorf("%v should not depend on memory", m)
		}
	}
	// Table VI row shapes.
	if n := len(Proc.Metrics()); n != 4 {
		t.Errorf("/proc has %d metrics, want 4", n)
	}
	if n := len(SPML.Metrics()); n != 10 {
		t.Errorf("SPML has %d metrics, want 10", n)
	}
	if n := len(EPML.Metrics()); n != 8 {
		t.Errorf("EPML has %d metrics, want 8", n)
	}
	if n := len(EPML.MemDependentMetrics()); n != 1 {
		t.Errorf("EPML has %d mem-dependent metrics, want 1 (M18)", n)
	}
	if n := len(Proc.MonitoringPhaseMetrics()); n != 1 {
		t.Errorf("/proc has %d monitoring metrics, want 1 (M5)", n)
	}
}

func TestConstCosts(t *testing.T) {
	m := Default()
	if m.ConstCost(M1ContextSwitch) != 315*time.Nanosecond {
		t.Errorf("M1 = %v", m.ConstCost(M1ContextSwitch))
	}
	if m.ConstCost(M9HypInitPML) != 5495*time.Microsecond {
		t.Errorf("M9 = %v", m.ConstCost(M9HypInitPML))
	}
	if m.ConstCost(M5PFHKernel) != 0 {
		t.Error("mem-dependent metric has a const cost")
	}
	if _, ok := m.MemCurve(M17ReverseMapping); !ok {
		t.Error("M17 curve missing")
	}
	if _, ok := m.MemCurve(M1ContextSwitch); ok {
		t.Error("M1 has a curve")
	}
}

func TestEstimateOracleIsZero(t *testing.T) {
	m := Default()
	est := m.Estimate(Oracle, EventCounts{MemBytes: 1 << 30, KernelFaults: 1000})
	if est.ECx != 0 || est.Interaction != 0 {
		t.Errorf("oracle estimate = %v / %v, want 0/0", est.ECx, est.Interaction)
	}
}

func TestEstimateScalesWithCounts(t *testing.T) {
	m := Default()
	base := EventCounts{MemBytes: 64 << 20, KernelFaults: 1000, ClearRefsCalls: 1, PagesWalked: 16384}
	double := base
	double.KernelFaults *= 2
	e1 := m.Estimate(Proc, base)
	e2 := m.Estimate(Proc, double)
	if e2.Interaction <= e1.Interaction {
		t.Error("doubling faults did not raise the interaction estimate")
	}
	if e2.ECx != e1.ECx {
		t.Error("faults leaked into E(C_x) for /proc")
	}
}

func TestAccuracy(t *testing.T) {
	if a := Accuracy(100, 100); a != 100 {
		t.Errorf("exact accuracy = %v", a)
	}
	if a := Accuracy(90, 100); a < 89.9 || a > 90.1 {
		t.Errorf("90%% accuracy = %v", a)
	}
	if a := Accuracy(300, 100); a != 0 {
		t.Errorf("overshoot accuracy = %v, want clamped 0", a)
	}
	if a := Accuracy(0, 0); a != 100 {
		t.Errorf("0/0 accuracy = %v", a)
	}
	if a := Accuracy(5, 0); a != 0 {
		t.Errorf("x/0 accuracy = %v", a)
	}
}

// TestQuickAccuracyBounds: accuracy always lands in [0, 100].
func TestQuickAccuracyBounds(t *testing.T) {
	prop := func(est, meas uint32) bool {
		a := Accuracy(time.Duration(est), time.Duration(meas))
		return a >= 0 && a <= 100
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestTechniqueStrings(t *testing.T) {
	names := map[Technique]string{Oracle: "oracle", Proc: "/proc", Ufd: "ufd", SPML: "SPML", EPML: "EPML"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if M17ReverseMapping.String() != "M17 reverse mapping" {
		t.Errorf("metric string = %q", M17ReverseMapping.String())
	}
}
