package metrics

import "testing"

func diffFixture(scale int64) Snapshot {
	r := NewRegistry()
	r.Counter("hypervisor", "events", "pml_log").Add(10 * scale)
	r.Counter("hypervisor", "events", "pml_drain").Add(2 * scale)
	r.Counter("cpu", "tlb_flush", "").Add(scale)
	r.Gauge("core", "ring_fill", "vm0").Set(7 * scale)
	h := r.Histogram("migration", "round_ns", "")
	for i := int64(1); i <= 10; i++ {
		h.Observe(i * scale)
	}
	return r.Snapshot()
}

func TestDiffSnapshotsSelfIsEmpty(t *testing.T) {
	s := diffFixture(3)
	d := DiffSnapshots(s, s)
	if !d.Empty() {
		t.Fatalf("self-diff not empty: %+v", d)
	}
	// Context rows are preserved: every metric shows up with zero delta.
	if len(d.Counters) != len(s.Counters) || len(d.Gauges) != len(s.Gauges) ||
		len(d.Histograms) != len(s.Histograms) {
		t.Errorf("self-diff row counts: %d/%d/%d, want %d/%d/%d",
			len(d.Counters), len(d.Gauges), len(d.Histograms),
			len(s.Counters), len(s.Gauges), len(s.Histograms))
	}
	if ranked := RankMetricDeltas(d.Counters); len(ranked) != 0 {
		t.Errorf("self-diff ranking not empty: %+v", ranked)
	}
}

func TestDiffSnapshotsUnionAndRanking(t *testing.T) {
	old := diffFixture(1)
	// New run: pml_log doubles, tlb_flush vanishes, a new counter appears.
	r := NewRegistry()
	r.Counter("hypervisor", "events", "pml_log").Add(20)
	r.Counter("hypervisor", "events", "pml_drain").Add(2)
	r.Counter("guestos", "events", "epml_flush").Add(5)
	r.Gauge("core", "ring_fill", "vm0").Set(7)
	h := r.Histogram("migration", "round_ns", "")
	for i := int64(1); i <= 10; i++ {
		h.Observe(i * 2)
	}
	new := r.Snapshot()

	d := DiffSnapshots(old, new)
	if d.Empty() {
		t.Fatal("changed snapshots diffed empty")
	}
	byKey := map[string]MetricDelta{}
	for _, c := range d.Counters {
		byKey[c.Key()] = c
	}
	if c := byKey["hypervisor/events{pml_log}"]; c.Old != 10 || c.New != 20 || c.Delta() != 10 {
		t.Errorf("pml_log delta: %+v", c)
	}
	if c := byKey["cpu/tlb_flush"]; c.Old != 1 || c.New != 0 {
		t.Errorf("vanished counter: %+v", c)
	}
	if c := byKey["guestos/events{epml_flush}"]; c.Old != 0 || c.New != 5 {
		t.Errorf("appeared counter: %+v", c)
	}
	if g := d.Gauges; len(g) != 1 || g[0].Delta() != 0 {
		t.Errorf("unchanged gauge: %+v", g)
	}
	if len(d.Histograms) != 1 {
		t.Fatalf("histogram rows: %+v", d.Histograms)
	}
	hd := d.Histograms[0]
	if hd.Zero() || hd.CountDelta() != 0 || hd.SumDelta() != 55 || hd.P99Delta() != 10 {
		t.Errorf("histogram delta: %+v (sumΔ=%d p99Δ=%d)", hd, hd.SumDelta(), hd.P99Delta())
	}

	ranked := RankMetricDeltas(d.Counters)
	if len(ranked) != 3 || ranked[0].Key() != "hypervisor/events{pml_log}" {
		t.Errorf("ranking: %+v", ranked)
	}
	for i := 1; i < len(ranked); i++ {
		a, b := ranked[i-1].Delta(), ranked[i].Delta()
		if a < 0 {
			a = -a
		}
		if b < 0 {
			b = -b
		}
		if b > a {
			t.Errorf("ranking not descending at %d: %+v", i, ranked)
		}
	}

	// Determinism: same inputs, same ordering.
	d2 := DiffSnapshots(old, new)
	for i := range d.Counters {
		if d.Counters[i] != d2.Counters[i] {
			t.Fatalf("diff not deterministic at counter %d", i)
		}
	}
}
