package conformance

import (
	"fmt"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// pmlBufferOnly is the documented allowlist for the cross-backend
// observability parity contract: the only observations the "sim" backend
// may emit that the "oracle" backend never does are the ones tied to the
// physical PML buffer the oracle does not have. Everything else a dirty-
// tracking run observes must appear under both backends, or cross-backend
// diffs would attribute the whole tracking plane to "sim only".
var (
	// Trace kinds that only exist because a finite buffer fills.
	pmlBufferOnlyKinds = map[string]bool{
		"pml_full":      true, // buffer-full vmexit
		"epml_full_irq": true, // guest-buffer-full posted self-IPI
	}
	// Counters that only move on buffer-full vmexits. (The pooled
	// cpu/vmexits_total counter is NOT listed: both backends take
	// non-PML vmexits, so it must appear under both.)
	pmlBufferOnlyCounters = map[string]bool{
		"cpu/vmexits_by_reason{PML_FULL}": true,
	}
	// Gauges tracking buffer state.
	pmlBufferOnlyGauges = map[string]bool{
		"cpu/pml_buffer_occupancy{}": true,
	}
)

// dirtyMix drives a canned dirty-tracking mix on the named backend with
// the metrics plane attached and returns the observed (non-zero) event
// kinds, counter keys and gauge keys. The mix deliberately writes more
// than one PML buffer's worth of distinct pages in its first interval so
// the sim backend exercises its buffer-full path.
func dirtyMix(t *testing.T, backend string) (kinds, counters, gauges map[string]bool, pmlLogs int64) {
	t.Helper()
	const pages = 600 // > vmcs.PMLBufferEntries (512)
	reg := metrics.NewRegistry()
	m, err := machine.New(machine.Config{Backend: backend, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	g := m.Guest(0)
	proc := g.Kernel.Spawn("app")
	region, err := proc.Mmap(uint64(pages)*mem.PageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(11)
	for p := 0; p < pages; p++ {
		if err := proc.WriteU64(region.Start.Add(uint64(p)*mem.PageSize), rng.Uint64()); err != nil {
			t.Fatal(err)
		}
	}

	dl := g.VM
	dl.StartDirtyLogging()
	defer dl.StopDirtyLogging()
	// Round 1: every page, overflowing sim's buffer. Rounds 2-3: shrinking
	// subsets, so re-arming after collect is observed too.
	for round, stride := range []int{1, 3, 7} {
		for p := 0; p < pages; p += stride {
			gva := region.Start.Add(uint64(p) * mem.PageSize)
			if err := proc.WriteU64(gva, uint64(round)<<32|uint64(p)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := dl.CollectDirty(); err != nil {
			t.Fatal(err)
		}
	}

	kinds = map[string]bool{}
	counters = map[string]bool{}
	gauges = map[string]bool{}
	snap := reg.Snapshot()
	for _, c := range snap.Counters {
		if c.Value == 0 {
			continue
		}
		switch c.Name {
		case metrics.NameEvents:
			kinds[c.Label] = true
			if c.Label == "pml_log" {
				pmlLogs = c.Value
			}
		case metrics.NameEventArgSum:
			// Folded into the kind set: an arg sum can only be non-zero for
			// an observed kind.
			kinds[c.Label] = true
		default:
			counters[fmt.Sprintf("%s/%s{%s}", c.Subsystem, c.Name, c.Label)] = true
		}
	}
	for _, gg := range snap.Gauges {
		if gg.Value != 0 {
			gauges[fmt.Sprintf("%s/%s{%s}", gg.Subsystem, gg.Name, gg.Label)] = true
		}
	}
	return kinds, counters, gauges, pmlLogs
}

// TestOracleDirtyLogObservability is the regression guard for the parity
// fix: a pure dirty-tracking run under OOH_BACKEND=oracle (resolved via
// the environment, the way experiment drivers pick the backend) must emit
// the bridge-mapped pml_log and pml_drain observations. Before the fix
// the oracle harvested through host maps without touching any plane, so
// this run observed nothing at all.
func TestOracleDirtyLogObservability(t *testing.T) {
	t.Setenv("OOH_BACKEND", "oracle")
	kinds, _, _, pmlLogs := dirtyMix(t, "") // "" = resolve from OOH_BACKEND
	if !kinds["pml_log"] {
		t.Error("oracle run observed no pml_log events")
	}
	if !kinds["pml_drain"] {
		t.Error("oracle run observed no pml_drain events")
	}
	if pmlLogs == 0 {
		t.Error("oracle run's pml_log event counter is zero")
	}
	for k := range kinds {
		if pmlBufferOnlyKinds[k] {
			t.Errorf("oracle run observed buffer-only kind %q (it has no PML buffer)", k)
		}
	}
}

// TestBackendObservabilityParity pins the cross-backend contract: the
// same canned dirty-tracking mix observed under "sim" and under "oracle"
// yields the same event kinds, counter keys and gauge keys, except for
// the documented PML-buffer-only allowlist - and the per-interval dirty
// logging discipline is identical, so the pml_log event counts match
// exactly (one log per page per arming interval on both backends).
func TestBackendObservabilityParity(t *testing.T) {
	simKinds, simCtrs, simGauges, simLogs := dirtyMix(t, "sim")
	oraKinds, oraCtrs, oraGauges, oraLogs := dirtyMix(t, "oracle")

	// The mix overflows one PML buffer, so the allowlist must actually be
	// exercised on the sim side - otherwise this test proves nothing.
	if !simKinds["pml_full"] {
		t.Fatal("canned mix did not overflow the sim PML buffer; grow it")
	}

	diff := func(plane string, simSet, oraSet, allow map[string]bool) {
		for k := range simSet {
			if !oraSet[k] && !allow[k] {
				t.Errorf("%s %q observed under sim but not oracle (and not allowlisted)", plane, k)
			}
		}
		for k := range oraSet {
			if !simSet[k] {
				t.Errorf("%s %q observed under oracle but not sim", plane, k)
			}
			if allow[k] {
				t.Errorf("%s %q is allowlisted as buffer-only but the oracle observed it", plane, k)
			}
		}
	}
	diff("kind", simKinds, oraKinds, pmlBufferOnlyKinds)
	diff("counter", simCtrs, oraCtrs, pmlBufferOnlyCounters)
	diff("gauge", simGauges, oraGauges, pmlBufferOnlyGauges)

	if simLogs != oraLogs {
		t.Errorf("pml_log event counts diverge: sim %d, oracle %d (both should log each page once per interval)", simLogs, oraLogs)
	}
}
