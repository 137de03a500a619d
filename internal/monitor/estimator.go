package monitor

import "repro/internal/metrics"

// Rate estimators for dirty-page event streams. Both estimators use pure
// integer arithmetic (fixed-point per-mille for the EWMA smoothing factor)
// so their outputs are bit-identical on every platform - the monitor's
// byte-identity contract under sharded grids depends on it.

// Source identifies which event stream feeds an estimator: one per
// hardware/kernel dirty-page mechanism, plus one per tracking technique
// (fed from track_collect page counts, attributed to the technique the
// VM's last track_init armed).
type source uint8

const (
	srcPML       source = iota // hypervisor-level PML log entries (pml_log)
	srcEPML                    // guest-level PML entries (epml_log)
	srcSoftDirty               // soft-dirty write-protect faults
	srcUfd                     // userfaultfd write-notify faults
	// srcTechBase + costmodel.Technique: pages reported per collection by
	// the technique armed on the VM.
	srcTechBase
)

var srcNames = [...]string{
	srcPML:       "pml",
	srcEPML:      "epml",
	srcSoftDirty: "softdirty",
	srcUfd:       "ufd",
}

// estKey identifies one estimator: the VM the events occurred on and the
// stream they came from.
type estKey struct {
	vm  int32
	src source
}

// ratePoint is one (virtual time, cumulative count) observation, the raw
// material of the windowed rate.
type ratePoint struct {
	ts    int64
	count int64
}

// estimator tracks one event stream's dirty-page rate two ways:
//
//   - windowed: events observed over the trailing rateWindow of virtual
//     time, scaled to pages/second - responsive, exact, noisy at small
//     windows;
//   - EWMA: an exponentially weighted moving average of the per-tick
//     instantaneous rate, ewmaAlphaPermille/1000 per tick - smooth,
//     lagging.
//
// Counts accumulate on the event hot path; rates are folded only on the
// monitor's evaluation tick, so per-event cost is two integer adds.
type estimator struct {
	label string // "vm0/pml", "vm0/tech/EPML", ...
	count int64  // cumulative events (pages) observed

	// Tick-time state.
	lastTS    int64       // virtual time of the previous fold
	lastCount int64       // count at the previous fold
	window    []ratePoint // trailing observations inside the window
	rate      int64       // latest windowed rate, pages/sec
	ewma      int64       // latest EWMA rate, pages/sec

	// Sampled series of (tick TS, windowed rate) and (tick TS, ewma),
	// the monitor-snapshot analogue of metrics sampler series.
	ratePts []metrics.Point
	ewmaPts []metrics.Point

	// Published gauges (nil when the monitor has no registry attached).
	rateG *metrics.Gauge
	ewmaG *metrics.Gauge
}

// bump records n observed dirty pages at virtual time now.
func (e *estimator) bump(n int64) {
	e.count += n
}

// fold advances the estimator to tick time now: computes the windowed and
// EWMA rates from the counts accumulated since the previous fold and
// appends one point per series.
func (e *estimator) fold(now int64) {
	if now < e.lastTS {
		// Virtual time moved backwards: the monitor was re-attached to a
		// fresh machine whose clock restarts at zero (a bench sweep reusing
		// one registry across scenarios). Re-anchor: the cumulative count
		// survives, the window history does not.
		e.window = e.window[:0]
		e.lastTS = now
		e.lastCount = e.count
		return
	}
	e.window = append(e.window, ratePoint{ts: now, count: e.count})
	// Drop observations older than the window, keeping one anchor point at
	// or before the window edge so the rate covers the full span.
	edge := now - int64(rateWindow)
	cut := 0
	for cut < len(e.window)-1 && e.window[cut+1].ts <= edge {
		cut++
	}
	e.window = e.window[cut:]

	anchor := e.window[0]
	if span := now - anchor.ts; span > 0 {
		e.rate = (e.count - anchor.count) * 1e9 / span
	} else {
		e.rate = 0
	}

	// EWMA over the instantaneous per-tick rate.
	var inst int64
	if span := now - e.lastTS; span > 0 {
		inst = (e.count - e.lastCount) * 1e9 / span
	}
	if e.lastTS == 0 && len(e.ratePts) == 0 {
		e.ewma = inst // first fold seeds the average
	} else {
		e.ewma += ewmaAlphaPermille * (inst - e.ewma) / 1000
	}
	e.lastTS = now
	e.lastCount = e.count

	e.ratePts = append(e.ratePts, metrics.Point{TS: now, V: e.rate})
	e.ewmaPts = append(e.ewmaPts, metrics.Point{TS: now, V: e.ewma})
}
