package monitor

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// The rounds-to-converge predictor.
//
// Pre-copy (migration and incremental checkpointing alike) converges when
// the per-round dirty set shrinks below the stop-and-copy target. The
// drivers discover failure only at the end: migration's SLO guard trips
// after MaxRounds when the estimated downtime still exceeds the budget
// (ErrSLOAbort), and a checkpoint just stops improving. The predictor
// answers the question online: it extrapolates the observed dirty-set
// series geometrically - if the last rounds shrank by ratio r, round n+k
// is dirty*r^k - and flags the run as non-converging as soon as the
// extrapolation shows the target is unreachable within the remaining
// round budget, which is always strictly before the guard can trip.
//
// All arithmetic is fixed-point (per-mille ratios) for cross-platform
// byte-identity.

// NeverConverges is the RoundsToConverge value for a series whose
// extrapolation never reaches the target within the round budget.
const NeverConverges = -1

// ratioCap bounds the per-round shrink ratio: a growing dirty set
// (ratio > 1) extrapolates as non-shrinking rather than exploding.
const ratioCap = 1000

// Round feeds one pre-copy round boundary to the monitor. The
// migration/criu drivers call it after each dirty-set collection:
//
//	sub        "migration" or "criu"
//	round      1-based dirty-round number
//	dirty      pages found dirty this round
//	target     stop-and-copy convergence target (pages); <=0 = none
//	maxRounds  the driver's round budget
//	estNs      estimated stop-and-copy downtime if stopping now (0 = n/a)
//	budgetNs   the downtime SLO budget (0 = none)
//	now        current virtual time
//
// Nil-receiver safe: a disabled monitor costs the caller one branch.
func (m *Monitor) Round(vm int32, sub string, round, dirty, target, maxRounds int, estNs, budgetNs, now int64) {
	if m == nil {
		return
	}
	k := roundKey{cell: m.shard, vm: vm, sub: sub}
	rs := m.rounds[k]
	if rs == nil || round <= len(rs.dirty) {
		// First round of a run, or the driver restarted (journal resume,
		// next grid repetition): a fresh series.
		rs = &roundSeries{key: k, toGo: NeverConverges}
		m.rounds[k] = rs
	}
	rs.dirty = append(rs.dirty, dirty)
	rs.ratioPm = shrinkRatioPm(rs.dirty)
	rs.toGo = extrapolate(dirty, target, rs.ratioPm, maxRounds-round)

	// Publish the live signals as gauges.
	label := fmt.Sprintf("vm%d/%s", vm, sub)
	m.reg.Gauge(metrics.SubMonitor, "precopy_dirty_pages", label).Set(int64(dirty))
	m.reg.Gauge(metrics.SubMonitor, "predicted_rounds_to_converge", label).Set(int64(rs.toGo))

	// Burn rate: estimated downtime over budget, per-mille, for burn()
	// rules and the explain report.
	if budgetNs > 0 {
		pm := estNs * 1000 / budgetNs
		m.burn = append(m.burn, metrics.Point{TS: now, V: pm})
		m.reg.Gauge(metrics.SubMonitor, "downtime_burn_permille", label).Set(pm)
	}

	// Flag non-convergence once per series, as soon as the extrapolation
	// is conclusive. Conclusive needs history (>= 2 rounds, so a ratio
	// exists) and a verdict that stopping now would break the SLO: either
	// the dirty set is not projected to reach the target in the rounds
	// that remain, or there is no target and the burn rate says the
	// budget cannot be met.
	if rs.flagged || len(rs.dirty) < 2 {
		m.tick(vm, now)
		return
	}
	failing := rs.toGo == NeverConverges && (target > 0 || (budgetNs > 0 && estNs > budgetNs))
	if failing {
		rs.flagged = true
		projected := project(dirty, rs.ratioPm, maxRounds-round)
		p := Prediction{
			TS: now, Cell: m.shard, VM: vm, Sub: sub, Round: round,
			Dirty: dirty, RatioPermille: rs.ratioPm,
			RoundsToConverge: NeverConverges,
			EstDowntimeNs:    estNs, BudgetNs: budgetNs,
		}
		m.predictions = append(m.predictions, p)
		m.alert(Alert{
			TS: now, Rule: "convergence", State: StatePredict, VM: vm,
			Value: int64(projected), Threshold: int64(target),
			Detail: fmt.Sprintf("%s round %d/%d: dirty=%d ratio=%dpm, projected %d pages at stop-and-copy (target %d)",
				sub, round, maxRounds, dirty, rs.ratioPm, projected, target),
		}, trace.KindMonPredict, vm)
	}
	m.tick(vm, now)
}

// shrinkRatioPm estimates the per-round shrink ratio (per-mille) from the
// last observed round pair, capped at ratioCap so a growing series
// extrapolates as "not shrinking". Needs >= 2 rounds; returns ratioCap
// otherwise (the conservative "no evidence of shrinking" prior).
func shrinkRatioPm(dirty []int) int64 {
	n := len(dirty)
	if n < 2 || dirty[n-2] <= 0 {
		return ratioCap
	}
	r := int64(dirty[n-1]) * 1000 / int64(dirty[n-2])
	if r > ratioCap {
		r = ratioCap
	}
	return r
}

// extrapolate walks the geometric projection forward: how many more
// rounds until the dirty set fits the target? 0 if it already does,
// NeverConverges if not within roundsLeft (or the series is not
// shrinking).
func extrapolate(dirty, target int, ratioPm int64, roundsLeft int) int {
	if target > 0 && dirty <= target {
		return 0
	}
	if ratioPm >= ratioCap || target <= 0 {
		return NeverConverges
	}
	x := int64(dirty)
	for k := 1; k <= roundsLeft; k++ {
		x = x * ratioPm / 1000
		if x <= int64(target) {
			return k
		}
	}
	return NeverConverges
}

// project applies the shrink ratio for the remaining round budget: the
// dirty-set size expected at the forced stop-and-copy.
func project(dirty int, ratioPm int64, roundsLeft int) int {
	x := int64(dirty)
	for k := 0; k < roundsLeft; k++ {
		x = x * ratioPm / 1000
	}
	return int(x)
}
