package monitor

import (
	"bytes"
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// driveCell runs one deterministic per-cell workload against a forked
// monitor: a PML storm on vm 0, a round series, and (cell 1 only) a
// soft-dirty stream - enough to exercise every merged structure.
func driveCell(m *Monitor, cell int) {
	feedPML(m, 0, ms(4))
	if cell == 1 {
		for t := int64(0); t <= ms(4); t += us(200) {
			m.ObserveKind(1, trace.KindSoftDirtyFault, t, 0, 0)
		}
	}
	roundFeed(m, SubMigration, []int{300, 300, 300}, 32, 3, ms(5), ms(1))
}

// mergedSnapshot forks, drives and merges cells in the given completion
// order (merge itself always happens in grid order, like the experiment
// driver after its barrier).
func mergedSnapshot(t *testing.T, driveOrder []int) []byte {
	t.Helper()
	dst := New(Config{Rules: mustRules(t, "monitor/dirty_rate_pps{vm0/pml} > 5000")})
	dst.Attach(nil, metrics.NewRegistry())
	forks := []*Monitor{dst.Fork(0), dst.Fork(1)}
	for _, f := range forks {
		f.Attach(nil, metrics.NewRegistry())
	}
	for _, cell := range driveOrder {
		driveCell(forks[cell], cell)
	}
	for _, f := range forks { // grid order, regardless of completion order
		dst.Merge(f)
	}
	var buf bytes.Buffer
	if err := dst.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func mustRules(t *testing.T, spec string) []Rule {
	t.Helper()
	rules, err := ParseRules(spec)
	if err != nil {
		t.Fatal(err)
	}
	return rules
}

// TestMergeOrderIndependence: cells may complete in any order (workers
// race), but merging in grid order makes the folded snapshot byte-identical
// - the package-level half of the -workers byte-identity contract.
func TestMergeOrderIndependence(t *testing.T) {
	a := mergedSnapshot(t, []int{0, 1})
	b := mergedSnapshot(t, []int{1, 0})
	if !bytes.Equal(a, b) {
		t.Fatalf("merged snapshots differ by completion order:\n%s\nvs\n%s", a, b)
	}
}

// TestMergeFoldsState: counts add across cells, timelines interleave in
// (TS, cell, seq) order, and per-cell round series stay distinct.
func TestMergeFoldsState(t *testing.T) {
	dst := New(Config{})
	dst.Attach(nil, metrics.NewRegistry())
	f0, f1 := dst.Fork(0), dst.Fork(1)
	f0.Attach(nil, metrics.NewRegistry())
	f1.Attach(nil, metrics.NewRegistry())
	driveCell(f0, 0)
	driveCell(f1, 1)
	dst.Merge(f0)
	dst.Merge(f1)

	snap := dst.Snapshot()
	var pml *EstimatorSnap
	for i := range snap.Estimators {
		if snap.Estimators[i].Name == "vm0/pml" {
			pml = &snap.Estimators[i]
		}
	}
	if pml == nil {
		t.Fatalf("no vm0/pml estimator after merge: %+v", snap.Estimators)
	}
	if pml.Pages != 2*41 { // both cells fed 41 events (0..4ms at 100us)
		t.Errorf("merged pages = %d, want 82", pml.Pages)
	}
	// Both cells' round series survive under their own cell key.
	if len(snap.Rounds) != 2 {
		t.Fatalf("rounds = %+v, want one per cell", snap.Rounds)
	}
	if snap.Rounds[0].Cell != 0 || snap.Rounds[1].Cell != 1 {
		t.Errorf("round cells = %d, %d", snap.Rounds[0].Cell, snap.Rounds[1].Cell)
	}
	// Non-shrinking series with a target: each cell flags once.
	preds := dst.Predictions()
	if len(preds) != 2 {
		t.Fatalf("predictions = %+v, want one per cell", preds)
	}
	if preds[0].Cell != 0 || preds[1].Cell != 1 {
		t.Errorf("prediction cells = %d, %d (same-TS ties break by cell)",
			preds[0].Cell, preds[1].Cell)
	}
	// Alerts are (TS, cell, seq) ordered.
	alerts := dst.Alerts()
	for i := 1; i < len(alerts); i++ {
		a, b := alerts[i-1], alerts[i]
		if a.TS > b.TS || (a.TS == b.TS && a.Cell > b.Cell) {
			t.Fatalf("timeline out of order at %d: %+v then %+v", i, a, b)
		}
	}
}

// TestForkNilAndDisabled: a nil monitor forks and merges to nil, keeping
// uninstrumented grids free.
func TestForkNilAndDisabled(t *testing.T) {
	var m *Monitor
	if f := m.Fork(3); f != nil {
		t.Error("nil monitor forked non-nil")
	}
	m.Merge(nil) // must not panic
	enabled := New(Config{})
	enabled.Merge(nil) // nil src: no-op
	var nilDst *Monitor
	nilDst.Merge(enabled) // nil dst: no-op
}

// TestForkCarriesConfigAndShard: forks inherit rules and interval but tag
// their own cell.
func TestForkCarriesConfigAndShard(t *testing.T) {
	m := New(Config{Rules: mustRules(t, "monitor/x > 1")})
	f := m.Fork(7)
	if f.shard != 7 {
		t.Errorf("fork shard = %d, want 7", f.shard)
	}
	if len(f.Rules()) != 1 || f.Rules()[0] != m.Rules()[0] {
		t.Errorf("fork rules = %v, want %v", f.Rules(), m.Rules())
	}
	f.Attach(nil, metrics.NewRegistry())
	roundFeed(f, SubCRIU, []int{100, 100}, 10, 4, 0, 0)
	if preds := f.Predictions(); len(preds) != 1 || preds[0].Cell != 7 {
		t.Errorf("fork predictions = %+v, want cell 7", preds)
	}
}
