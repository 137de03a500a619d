package experiments

import (
	"bytes"
	"testing"

	"repro/internal/simcache"
	"repro/internal/trace"
)

// checkCacheEquivalence runs one fully probed experiment twice - once with
// every host-side acceleration cache enabled (the default) and once with
// simcache.DisableAll - and asserts every output byte is identical. This
// is the contract the software TLB, the paging-structure cache, the
// reverse-map index and the workload memo all promise: they change how fast
// the simulator runs, never what it computes.
// unprobed lists experiments whose runners never attach the Options
// probes to their machines (Table IV's micro grid runs with its planes
// detached, the scalability sweeps via runBoehmOn, the ablations); their
// outputs are still compared byte-for-byte, but the trace stream is
// legitimately empty.
var unprobed = map[string]bool{
	"ablation-ring":  true,
	"ablation-slice": true,
	"table2":         true,
	"table4":         true,
	"table5":         true,
	"table6":         true,
	"fig10":          true,
	"fig11":          true,
}

func checkCacheEquivalence(t *testing.T, id string, mask uint64) {
	t.Helper()
	cached := runObserved(t, id, 1, mask)
	restore := simcache.DisableAll()
	uncached := runObserved(t, id, 1, mask)
	restore()

	if cached.table != uncached.table {
		t.Errorf("%s: rendered tables differ between cached and uncached runs", id)
	}
	if !bytes.Equal(cached.jsonl, uncached.jsonl) {
		t.Errorf("%s: JSONL traces differ (cached %d bytes, uncached %d bytes)",
			id, len(cached.jsonl), len(uncached.jsonl))
	}
	if !bytes.Equal(cached.prom, uncached.prom) {
		t.Errorf("%s: Prometheus snapshots differ:\n--- cached ---\n%s\n--- uncached ---\n%s",
			id, cached.prom, uncached.prom)
	}
	if !bytes.Equal(cached.mjson, uncached.mjson) {
		t.Errorf("%s: JSONL metrics snapshots differ", id)
	}
	if !bytes.Equal(cached.folded, uncached.folded) {
		t.Errorf("%s: folded-stack profiles differ:\n--- cached ---\n%s\n--- uncached ---\n%s",
			id, cached.folded, uncached.folded)
	}
	if !bytes.Equal(cached.pprof, uncached.pprof) {
		t.Errorf("%s: pprof profiles differ (cached %d bytes, uncached %d bytes)",
			id, len(cached.pprof), len(uncached.pprof))
	}
	if len(cached.jsonl) == 0 && !unprobed[id] {
		t.Errorf("%s: trace stream is empty - the probes were not attached", id)
	}
}

// TestCacheDisabledCrossCheck sweeps every canned experiment through the
// cached-vs-uncached comparison. The heavy grids use the bounded
// technique-phase trace mask (full per-page kinds would emit millions of
// records per run); the cheap fault matrix is traced with every kind.
func TestCacheDisabledCrossCheck(t *testing.T) {
	checkCacheEquivalence(t, "fault-matrix", trace.AllKinds)

	if testing.Short() {
		t.Skip("full experiment sweep skipped with -short")
	}
	mask, err := trace.ParseKinds("track_init,track_collect,track_close,clear_refs,hypercall")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range IDs() {
		if id == "fault-matrix" {
			continue // covered above with the full mask
		}
		id := id
		t.Run(id, func(t *testing.T) {
			checkCacheEquivalence(t, id, mask)
		})
	}
}
