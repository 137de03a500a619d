package tracking

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/costmodel"
	"repro/internal/faults"
	"repro/internal/guestos"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/pgtable"
	"repro/internal/prof"
	"repro/internal/trace"
)

// Recovery-policy constants. Backoffs are virtual time, charged to the
// simulation clock so recovery overhead shows up in Stats and traces like
// any other technique cost.
const (
	// maxTransientRetries bounds how often one operation is retried after
	// a faults.ErrTransient failure before the Resilient wrapper gives up
	// on it (degrading at Init, falling back to the rescan net at Collect).
	maxTransientRetries = 4
	// baseBackoff is the wait before the first retry; it doubles per
	// attempt (20, 40, 80, 160 us).
	baseBackoff = 20 * time.Microsecond
	// stallCost is the extra virtual time an injected CollectStall adds in
	// front of a collection.
	stallCost = 200 * time.Microsecond
)

// DefaultLadder is the degradation order NewResilient walks when a rung's
// capability turns out to be absent: best technique first, the
// always-available /proc rung last.
func DefaultLadder() []costmodel.Technique {
	return []costmodel.Technique{costmodel.EPML, costmodel.SPML, costmodel.Ufd, costmodel.Proc}
}

// LadderFrom returns the DefaultLadder suffix starting at preferred, so a
// caller asking for SPML degrades through ufd to /proc but never "upgrades"
// to EPML. An unknown preferred technique yields a one-rung ladder.
func LadderFrom(preferred costmodel.Technique) []costmodel.Technique {
	full := DefaultLadder()
	for i, k := range full {
		if k == preferred {
			return full[i:]
		}
	}
	return []costmodel.Technique{preferred}
}

// Factory constructs the concrete technique for one ladder rung. It must
// not perform the technique's Init; Resilient drives that itself so it can
// classify the failure.
type Factory func(kind costmodel.Technique) (Technique, error)

// Recovery accumulates what the Resilient wrapper had to do to keep its
// reports oracle-exact, for tables and CLI summaries.
type Recovery struct {
	Retries      int           // transient failures retried
	BackoffTime  time.Duration // virtual time spent waiting between retries
	Degradations int           // ladder rungs descended at Init
	Rescans      int           // lossy epochs repaired by soft-dirty rescan
	RescuedPages int64         // dirty pages recovered by those rescans
	Stalls       int           // injected Collect stalls absorbed
}

// Resilient wraps a ladder of tracking techniques with fault recovery:
//
//   - At Init it probes capabilities, descending the ladder (EPML -> SPML ->
//     ufd -> /proc) past rungs whose Init fails with faults.ErrUnsupported
//     or with transient failures that survive the bounded retries.
//   - Transient failures (faults.ErrTransient) of any phase are retried up
//     to maxTransientRetries times with doubling virtual-time backoff,
//     charged to the clock and visible in Stats and in KindTrackRetry
//     trace records.
//   - When the armed fault spec can silently lose logged pages
//     (Injector.LossPossible), Resilient arms an independent safety net:
//     a zero-cost write-set oracle detects a lossy collection, and the
//     missed pages are recovered from a soft-dirty rescan of the epoch
//     (clear_refs at Init and after every Collect keeps the soft-dirty
//     window aligned with collection epochs). Detection is free; recovery
//     pays the full pagemap-walk and clear_refs costs.
//
// Resilient implements Technique. Its Stats cover the whole wrapped
// operation - inner phases plus recovery overhead. It deliberately emits no
// KindTrackInit/KindTrackCollect records of its own: the inner technique
// already emits them, and per-kind trace summaries must not double-count;
// recovery actions get their own kinds instead (KindTrackRetry,
// KindTrackDegrade, KindTrackRescan).
type Resilient struct {
	proc    *guestos.Process
	k       *guestos.Kernel
	inj     *faults.Injector
	factory Factory
	ladder  []costmodel.Technique

	inner Technique
	ver   *Verifier
	// resync marks that the previous epoch's ring was abandoned after
	// exhausted retries: the next inner report may carry a stale ring
	// generation and is filtered against the oracle's current epoch.
	resync bool

	stats Stats
	rec   Recovery
	w     watch
}

// NewResilient wraps the given degradation ladder (DefaultLadder when
// empty) around factory-built techniques for proc. inj may be nil (no
// injected faults: the wrapper is then pass-through plus phase accounting).
func NewResilient(proc *guestos.Process, inj *faults.Injector, factory Factory,
	ladder ...costmodel.Technique) *Resilient {
	if len(ladder) == 0 {
		ladder = DefaultLadder()
	}
	k := proc.Kernel()
	return &Resilient{
		proc:    proc,
		k:       k,
		inj:     inj,
		factory: factory,
		ladder:  ladder,
		w:       watch{clock: k.Clock, vcpu: k.VCPU},
	}
}

// Name implements Technique.
func (r *Resilient) Name() string {
	if r.inner == nil {
		return "resilient"
	}
	return "resilient(" + r.inner.Name() + ")"
}

// Kind implements Technique: the active rung's identity (the preferred rung
// before Init).
func (r *Resilient) Kind() costmodel.Technique {
	if r.inner == nil {
		return r.ladder[0]
	}
	return r.inner.Kind()
}

// Active returns the rung currently in use (valid after Init).
func (r *Resilient) Active() costmodel.Technique { return r.Kind() }

// Recovery returns the accumulated recovery statistics.
func (r *Resilient) Recovery() Recovery { return r.rec }

// Init implements Technique: acquire a working rung, then arm the loss
// safety net if the fault spec calls for it.
func (r *Resilient) Init() error {
	return r.w.measure(&r.stats.InitTime, func() error {
		if err := r.acquire(); err != nil {
			return err
		}
		if r.inj.LossPossible() {
			r.ver = NewVerifier(r.proc)
			// Align the soft-dirty window with the first epoch.
			if err := r.k.ClearRefs(r.proc.Pid); err != nil {
				return err
			}
		}
		return nil
	})
}

// acquire walks the ladder until one rung's Init succeeds.
func (r *Resilient) acquire() error {
	sp := r.w.vcpu.Prof.Begin(prof.SubTracking, "acquire")
	defer sp.End()
	var lastErr error
	for i, kind := range r.ladder {
		inner, err := r.factory(kind)
		if err != nil {
			return err
		}
		err = r.withRetry(inner.Init)
		if err == nil {
			r.inner = inner
			return nil
		}
		if !errors.Is(err, faults.ErrUnsupported) && !errors.Is(err, faults.ErrTransient) {
			return err
		}
		// Capability absent (or persistently failing): release whatever
		// the rung half-initialized and descend.
		_ = inner.Close()
		lastErr = err
		if i+1 < len(r.ladder) {
			r.rec.Degradations++
			r.w.vcpu.Event(trace.KindTrackDegrade, r.w.clock.Nanos(), 0, 0,
				int64(kind)<<8|int64(r.ladder[i+1]))
		}
	}
	return fmt.Errorf("tracking: every ladder rung failed: %w", lastErr)
}

// withRetry runs op, retrying transient failures with doubling virtual-time
// backoff. The final error (nil, non-transient, or the transient that
// survived all retries) is returned.
func (r *Resilient) withRetry(op func() error) error {
	backoff := baseBackoff
	for attempt := 1; ; attempt++ {
		err := op()
		if err == nil || !errors.Is(err, faults.ErrTransient) || attempt > maxTransientRetries {
			return err
		}
		r.rec.Retries++
		r.rec.BackoffTime += backoff
		// Reported before the backoff advance: the event's TS and its
		// metrics observation are both the clock at the retry decision.
		r.w.vcpu.Event(trace.KindTrackRetry, r.w.clock.Nanos(), int64(backoff), 0, int64(attempt))
		sp := r.w.vcpu.Prof.Begin(prof.SubTracking, "retry")
		r.w.clock.Advance(backoff)
		sp.End()
		backoff *= 2
	}
}

// Collect implements Technique: collect from the active rung with retries,
// then check the epoch against the oracle and repair any loss from a
// soft-dirty rescan.
func (r *Resilient) Collect() ([]mem.GVA, error) {
	var out []mem.GVA
	err := r.w.measure(&r.stats.CollectTime, func() error {
		if r.inj.Fire(faults.CollectStall) {
			r.w.vcpu.FaultRecord(faults.CollectStall, 0)
			r.rec.Stalls++
			r.w.clock.Advance(stallCost)
		}
		err := r.withRetry(func() error {
			var e error
			out, e = r.inner.Collect()
			return e
		})
		switch {
		case err == nil:
			if r.resync {
				// The previous epoch's ring was abandoned mid-failure, so
				// this drain may replay a stale generation: keep only pages
				// actually written this epoch.
				kept := out[:0]
				for _, gva := range out {
					if r.ver.Has(gva) {
						kept = append(kept, gva)
					}
				}
				out = kept
				r.resync = false
			}
		case errors.Is(err, faults.ErrTransient) && r.ver != nil:
			// Retries exhausted. Abandon the ring for this epoch - the
			// rescan below recovers every page - and resynchronize on the
			// next collection.
			out = nil
			r.resync = true
		default:
			return err
		}
		if r.ver != nil {
			if missing := r.ver.CheckComplete(out); len(missing) > 0 {
				recovered, err := r.rescan(missing, &out)
				if err != nil {
					return err
				}
				r.rec.Rescans++
				r.rec.RescuedPages += int64(recovered)
			}
			// Re-align the soft-dirty window and the oracle with the next
			// epoch.
			if err := r.k.ClearRefs(r.proc.Pid); err != nil {
				return err
			}
			r.ver.Reset()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.stats.Collections++
	r.stats.Reported += int64(len(out))
	return out, nil
}

// rescan repairs a lossy epoch: a full soft-dirty scan of the process
// (paying the pagemap-walk cost), merged with the report restricted to the
// pages the oracle says were missed. The soft-dirty set is a superset of
// the epoch's true write set (clear_refs ran at the epoch's start), so the
// intersection recovers exactly the missing pages.
func (r *Resilient) rescan(missing []mem.GVA, out *[]mem.GVA) (int, error) {
	sp := r.w.vcpu.Begin(prof.SubTracking, "rescan")
	sd, err := r.k.SoftDirtyPages(r.proc.Pid)
	if err != nil {
		sp.End()
		return 0, err
	}
	missSet := make(map[mem.GVA]struct{}, len(missing))
	for _, gva := range missing {
		missSet[gva.PageFloor()] = struct{}{}
	}
	recovered := 0
	for _, gva := range sd {
		if _, miss := missSet[gva.PageFloor()]; miss {
			*out = append(*out, gva.PageFloor())
			delete(missSet, gva.PageFloor())
			recovered++
			// Re-arm guest-level logging for the rescued page: a lost EPML
			// entry leaves the PTE dirty bit set, which would suppress
			// logging of the page's next write (EPML logs on the clean ->
			// dirty transition only) and force a rescan every epoch.
			_ = r.proc.PT.ClearFlags(gva.PageFloor(), pgtable.FlagDirty)
		}
	}
	sp.Event(trace.KindTrackRescan, 0, int64(recovered))
	r.w.vcpu.Met.Count(metrics.SubTracking, "repaired_pages", "", int64(recovered))
	return recovered, nil
}

// Close implements Technique: disarm the safety net and close the active
// rung (with retries - disable_logging can fail transiently too).
func (r *Resilient) Close() error {
	return r.w.measure(&r.stats.CloseTime, func() error {
		if r.ver != nil {
			r.ver.Stop()
			r.ver = nil
		}
		if r.inner == nil {
			return nil
		}
		return r.withRetry(r.inner.Close)
	})
}

// Stats implements Technique: phase times of the whole wrapped operation,
// recovery overhead included.
func (r *Resilient) Stats() Stats { return r.stats }
