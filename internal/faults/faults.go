// Package faults is the simulator's deterministic fault-injection plane.
//
// A production dirty-page-tracking service has to survive misbehaving
// infrastructure: lost posted interrupts, overflowing PML buffers, flaky
// hypercalls, hosts whose CPUs lack the EPML extension. The PML
// working-set study of Bitchebe et al. (arXiv:2001.09991) measures
// buffer-full entry loss explicitly; this package lets every such failure
// be dialed in on purpose so the recovery machinery (tracking.Resilient)
// can be exercised and proven oracle-exact under it.
//
// Design constraints, mirroring the trace layer:
//
//   - Deterministic: every fault point draws from its own sim.RNG stream,
//     seeded from the injector seed and the point's identity. Faults never
//     consume workload randomness, and one point's firing pattern never
//     perturbs another's, so a run is a pure function of (workload seed,
//     fault spec, injector seed).
//   - Free when disabled: Fire on a nil *Injector, or for a point with
//     rate zero, is a branch - no RNG draw, no state change - so a run
//     with injection compiled in but disabled is bit-identical to one
//     without an injector at all. Rate-one points skip the draw too, so
//     "always" faults cannot shift another point's stream.
//   - Single-goroutine: like sim.Clock and trace.Tracer, one Injector
//     belongs to one simulation goroutine.
package faults

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Point identifies one typed fault-injection site at a trust boundary of
// the simulated stack.
type Point int

// Fault points, grouped by the layer that hosts them.
const (
	// --- internal/cpu: walk-circuit and VMX micro-ops -------------------
	IPIDrop     Point = iota // EPML buffer-full posted self-IPI lost; the pending entry is dropped
	IPIDup                   // EPML buffer-full posted self-IPI delivered twice
	PMLFullExit              // spurious PML-full vmexit (premature drain)
	VMWriteFail              // guest vmwrite to the shadow VMCS fails transiently

	// --- internal/hypervisor: hypercalls and PML buffer -----------------
	HCEnableFail  // enable_logging hypercall fails transiently
	HCDisableFail // disable_logging hypercall fails transiently
	HCInitFail    // init_pml / init_shadowing hypercall fails transiently
	HCDrainFail   // drain_ring hypercall fails transiently
	PMLEntryLoss  // one PML buffer entry lost during a drain

	// --- capability probes: feature absent on this host -----------------
	EPMLAbsent // vCPU without the EPML hardware extension
	SPMLAbsent // hypervisor without the SPML hypercall interface
	UfdAbsent  // guest kernel without userfaultfd

	// --- internal/tracking: the Tracker itself --------------------------
	CollectStall // a Collect stalls for extra virtual time before running

	// --- internal/migration: transport and destination faults -----------
	SendFail    // transient page-send failure toward the destination
	WireCorrupt // page payload corrupted in flight; the destination's per-page checksum catches it and NACKs
	DestStall   // destination stalls before acking a page (extra charged virtual time)
	RoundCrash  // transport session crashes between pre-copy rounds

	// --- internal/hypervisor: dirty-log harvest -------------------------
	CollectFail // CollectDirty fails transiently before draining the PML buffer

	numPoints // sentinel; keep last
)

var pointNames = [numPoints]string{
	IPIDrop:       "ipi-drop",
	IPIDup:        "ipi-dup",
	PMLFullExit:   "pml-full-exit",
	VMWriteFail:   "vmwrite-fail",
	HCEnableFail:  "hc-enable-fail",
	HCDisableFail: "hc-disable-fail",
	HCInitFail:    "hc-init-fail",
	HCDrainFail:   "hc-drain-fail",
	PMLEntryLoss:  "pml-entry-loss",
	EPMLAbsent:    "epml-absent",
	SPMLAbsent:    "spml-absent",
	UfdAbsent:     "ufd-absent",
	CollectStall:  "collect-stall",
	SendFail:      "send-fail",
	WireCorrupt:   "wire-corrupt",
	DestStall:     "dest-stall",
	RoundCrash:    "round-crash",
	CollectFail:   "collect-fail",
}

// String returns the point's stable spec-grammar name.
func (p Point) String() string {
	if p >= 0 && p < numPoints {
		return pointNames[p]
	}
	return "unknown"
}

// PointByName resolves a spec-grammar name back to its Point.
func PointByName(name string) (Point, bool) {
	for p, n := range pointNames {
		if n == name {
			return Point(p), true
		}
	}
	return 0, false
}

// Errors that injected faults surface to the recovery layer. Injection
// sites wrap these so errors.Is classifies every failure as retryable
// (transient) or as grounds for degrading to the next technique.
var (
	// ErrTransient marks a failure that a bounded retry may clear.
	ErrTransient = errors.New("faults: transient failure injected")
	// ErrUnsupported marks a capability that is absent on this host; no
	// amount of retrying will make it appear.
	ErrUnsupported = errors.New("faults: capability absent")
)

// lossPoints are the faults that can silently lose logged dirty pages,
// requiring the recovery layer to arm its soft-dirty rescan net.
var lossPoints = [...]Point{
	IPIDrop, VMWriteFail, HCEnableFail, HCDisableFail, HCDrainFail, PMLEntryLoss,
}

// Spec is a parsed fault specification: a firing rate per point plus an
// optional injector seed override.
type Spec struct {
	rates [numPoints]float64
	// Seed overrides the injector seed when non-zero (the `seed=N` token).
	Seed uint64
}

// Rate returns the firing probability of p in [0, 1].
func (s Spec) Rate(p Point) float64 {
	if p < 0 || p >= numPoints {
		return 0
	}
	return s.rates[p]
}

// SetRate sets the firing probability of p, clamped to [0, 1].
func (s *Spec) SetRate(p Point, rate float64) {
	if p < 0 || p >= numPoints {
		return
	}
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	s.rates[p] = rate
}

// Empty reports whether no point is armed.
func (s Spec) Empty() bool {
	for _, r := range s.rates {
		if r > 0 {
			return false
		}
	}
	return true
}

// LossPossible reports whether the spec arms any fault that can silently
// lose logged dirty pages (as opposed to capability probes and stalls,
// which degrade or slow tracking but never drop addresses).
func (s Spec) LossPossible() bool {
	for _, p := range lossPoints {
		if s.rates[p] > 0 {
			return true
		}
	}
	return false
}

// String renders the spec back in the grammar ParseSpec accepts.
func (s Spec) String() string {
	var parts []string
	for p := Point(0); p < numPoints; p++ {
		switch r := s.rates[p]; {
		case r >= 1:
			parts = append(parts, p.String())
		case r > 0:
			parts = append(parts, fmt.Sprintf("%s:%g", p, r))
		}
	}
	if s.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", s.Seed))
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses the CLI fault-spec grammar: a comma-separated list of
// `point[:rate]` tokens (a bare point name means rate 1) plus an optional
// `seed=N` token. The empty string is the empty spec. Unknown point names
// and malformed rates are errors - CLIs must reject them loudly rather
// than silently tracking without the faults the user asked for.
func ParseSpec(csv string) (Spec, error) {
	var spec Spec
	if strings.TrimSpace(csv) == "" {
		return spec, nil
	}
	for _, tok := range strings.Split(csv, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(tok, "seed="); ok {
			seed, err := strconv.ParseUint(rest, 10, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("faults: bad seed %q: %v", rest, err)
			}
			spec.Seed = seed
			continue
		}
		name, rateStr, hasRate := strings.Cut(tok, ":")
		p, ok := PointByName(name)
		if !ok {
			return Spec{}, fmt.Errorf("faults: unknown fault point %q (have %s)",
				name, strings.Join(pointNames[:], ", "))
		}
		rate := 1.0
		if hasRate {
			var err error
			rate, err = strconv.ParseFloat(rateStr, 64)
			// rate != rate rejects NaN, which would otherwise slip past
			// both range checks and break the parse/format round trip
			// (String omits non-positive rates).
			if err != nil || rate != rate || rate < 0 || rate > 1 {
				return Spec{}, fmt.Errorf("faults: bad rate %q for %s (want 0..1)", rateStr, name)
			}
		}
		spec.rates[p] = rate
	}
	return spec, nil
}

// Injector decides, deterministically, whether each visit to a fault
// point fires. A nil *Injector is a valid disabled injector, so
// instrumentation sites need no separate nil check:
//
//	if v.Inj.Fire(faults.PMLFullExit) { ... }
type Injector struct {
	spec   Spec
	rngs   [numPoints]*sim.RNG
	counts [numPoints]uint64
}

// New returns an injector for spec. seed seeds the per-point RNG streams
// unless the spec carries its own `seed=` override. Points with rate 0 or
// 1 never draw from their stream, so arming or disarming one point never
// shifts another point's firing pattern.
func New(spec Spec, seed uint64) *Injector {
	if spec.Seed != 0 {
		seed = spec.Seed
	}
	in := &Injector{spec: spec}
	for p := Point(0); p < numPoints; p++ {
		if r := spec.rates[p]; r > 0 && r < 1 {
			// Distinct stream per point: golden-ratio spacing keeps the
			// xorshift states far apart for adjacent points.
			in.rngs[p] = sim.NewRNG(seed ^ (uint64(p)+1)*0x9E3779B97F4A7C15)
		}
	}
	return in
}

// Spec returns the injector's parsed specification.
func (in *Injector) Spec() Spec {
	if in == nil {
		return Spec{}
	}
	return in.spec
}

// Armed reports whether any fault point can fire. Nil-receiver safe.
func (in *Injector) Armed() bool { return in != nil && !in.spec.Empty() }

// LossPossible reports whether an armed point can silently lose logged
// dirty pages. The recovery layer keys its rescan safety net on this.
func (in *Injector) LossPossible() bool { return in != nil && in.spec.LossPossible() }

// Fire reports whether the fault point fires on this visit, counting it
// when it does. Nil-receiver safe; rate-0 and rate-1 points cost one
// branch and no RNG draw.
func (in *Injector) Fire(p Point) bool {
	if in == nil || p < 0 || p >= numPoints {
		return false
	}
	r := in.spec.rates[p]
	if r <= 0 {
		return false
	}
	if r < 1 && in.rngs[p].Float64() >= r {
		return false
	}
	in.counts[p]++
	return true
}

// Count returns how many times p has fired.
func (in *Injector) Count(p Point) uint64 {
	if in == nil || p < 0 || p >= numPoints {
		return 0
	}
	return in.counts[p]
}

// Total returns how many faults have fired across all points.
func (in *Injector) Total() uint64 {
	if in == nil {
		return 0
	}
	var total uint64
	for _, c := range in.counts {
		total += c
	}
	return total
}

// Counts returns the non-zero per-point firing counts, keyed by the
// points' spec-grammar names (for reports and tables).
func (in *Injector) Counts() map[string]uint64 {
	if in == nil {
		return nil
	}
	out := make(map[string]uint64)
	for p := Point(0); p < numPoints; p++ {
		if in.counts[p] > 0 {
			out[p.String()] = in.counts[p]
		}
	}
	return out
}

// RenderCounts formats per-point firing counts (Injector.Counts) as
// "point:count" pairs in name order, or "-" when nothing fired.
func RenderCounts(counts map[string]uint64) string {
	if len(counts) == 0 {
		return "-"
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s:%d", k, counts[k])
	}
	return strings.Join(parts, " ")
}
