package monitor

import (
	"sort"

	"repro/internal/metrics"
)

// Sharded grids. Mirrors trace.Tracer.Shard/Merge and metrics
// Registry.Merge: the experiment driver forks one monitor per grid cell
// before the fan-out, each cell runs single-goroutine against its own
// fork, and after the barrier the forks are folded back into the
// destination monitor in grid order. Because every cell's state is
// keyed and merged deterministically - estimator and burn series through
// metrics.MergePoints like sampler series, timelines ordered by (TS,
// cell, seq), round series keyed by cell - the merged monitor is
// byte-identical at any worker count.

// Fork returns a fresh monitor for grid cell shard: same configuration
// and rules, empty state. Nil-receiver safe (a disabled monitor forks to
// nil, so uninstrumented grids stay free).
func (m *Monitor) Fork(shard int) *Monitor {
	if m == nil {
		return nil
	}
	f := New(m.cfg)
	f.shard = shard
	return f
}

// Merge folds a cell's monitor into m. Call in grid order after the
// barrier; src must not be used afterwards. Nil-receiver safe in both
// positions.
func (m *Monitor) Merge(src *Monitor) {
	if m == nil || src == nil {
		return
	}

	// Estimators: same (vm, source) keys across cells merge - counts add,
	// series merge-sort + re-thin - and new keys append in src order.
	interval := int64(tickInterval)
	for _, k := range src.estOrder {
		se := src.est[k]
		de := m.est[k]
		if de == nil {
			de = &estimator{label: se.label}
			de.rateG = m.reg.Gauge(metrics.SubMonitor, "dirty_rate_pps", de.label)
			de.ewmaG = m.reg.Gauge(metrics.SubMonitor, "dirty_rate_ewma_pps", de.label)
			m.est[k] = de
			m.estOrder = append(m.estOrder, k)
		}
		de.count += se.count
		de.ratePts = metrics.MergePoints(de.ratePts, se.ratePts, interval)
		de.ewmaPts = metrics.MergePoints(de.ewmaPts, se.ewmaPts, interval)
		// The merged "current" rate is the last merged sample.
		if n := len(de.ratePts); n > 0 {
			de.rate = de.ratePts[n-1].V
			de.rateG.Set(de.rate)
		}
		if n := len(de.ewmaPts); n > 0 {
			de.ewma = de.ewmaPts[n-1].V
			de.ewmaG.Set(de.ewma)
		}
	}

	// Timelines and predictions: concatenate, then restore (TS, cell,
	// seq) order. Per-cell seq values are preserved - they are the
	// deterministic tiebreak within a cell.
	m.timeline = append(m.timeline, src.timeline...)
	sortAlerts(m.timeline)
	m.predictions = append(m.predictions, src.predictions...)
	sort.SliceStable(m.predictions, func(i, j int) bool {
		if m.predictions[i].TS != m.predictions[j].TS {
			return m.predictions[i].TS < m.predictions[j].TS
		}
		return m.predictions[i].Cell < m.predictions[j].Cell
	})

	// Round series are keyed by cell, so cross-cell collisions are
	// impossible; adopt src's entries wholesale.
	for k, rs := range src.rounds {
		m.rounds[k] = rs
	}

	// Burn observations: merge-sorted by time (dest first on ties), every
	// point kept.
	m.burn = metrics.MergePoints(m.burn, src.burn, 0)
}
