package experiments

import (
	"bytes"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/machine"
	"repro/internal/trace"
)

// TestForkedMicroMatchesColdBoot pins the forked-sweep determinism
// contract at the cell level: a runMicro cell forked from the pooled warm
// snapshot reports exactly what the same cell reports after a cold
// boot+warm - every virtual time, counter and breakdown field.
func TestForkedMicroMatchesColdBoot(t *testing.T) {
	for _, kind := range []costmodel.Technique{costmodel.Proc, costmodel.Ufd, costmodel.SPML, costmodel.EPML} {
		forked, err := runMicro(kind, 6<<8, 17, machine.Config{}, false)
		if err != nil {
			t.Fatalf("forked runMicro(%v): %v", kind, err)
		}
		cold, err := runMicro(kind, 6<<8, 17, machine.Config{}, true)
		if err != nil {
			t.Fatalf("cold runMicro(%v): %v", kind, err)
		}
		if forked != cold {
			t.Errorf("%v: forked cell diverges from cold boot:\nforked: %+v\ncold:   %+v", kind, forked, cold)
		}
	}
}

// checkForkIdentity runs one experiment twice - snapshot-fork fast path vs
// ColdBoot - and asserts every output byte is identical: tables, trace
// stream, metrics exports, profiles. This is the gate that lets the fast
// path be the default for every committed figure and table.
func checkForkIdentity(t *testing.T, id string, mask uint64) {
	t.Helper()
	forked := runObservedOpt(t, id, Options{Workers: 4, Seed: 11}, mask)
	cold := runObservedOpt(t, id, Options{Workers: 4, Seed: 11, ColdBoot: true}, mask)

	if forked.table != cold.table {
		t.Errorf("%s: rendered tables differ between forked and cold-boot runs", id)
	}
	if !bytes.Equal(forked.jsonl, cold.jsonl) {
		t.Errorf("%s: JSONL traces differ (forked %d bytes, cold %d bytes)",
			id, len(forked.jsonl), len(cold.jsonl))
	}
	if !bytes.Equal(forked.prom, cold.prom) {
		t.Errorf("%s: Prometheus snapshots differ:\n--- forked ---\n%s\n--- cold ---\n%s",
			id, forked.prom, cold.prom)
	}
	if !bytes.Equal(forked.mjson, cold.mjson) {
		t.Errorf("%s: JSONL metrics snapshots differ", id)
	}
	if !bytes.Equal(forked.folded, cold.folded) {
		t.Errorf("%s: folded-stack profiles differ", id)
	}
	if !bytes.Equal(forked.pprof, cold.pprof) {
		t.Errorf("%s: pprof profiles differ", id)
	}
}

// TestForkDeterminism sweeps the micro-grid experiments (the drivers on
// the fork fast path) through the forked-vs-cold byte-identity check.
func TestForkDeterminism(t *testing.T) {
	mask, err := trace.ParseKinds("track_init,track_collect,track_close,clear_refs,hypercall")
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"fig3", "table1"}
	if !testing.Short() {
		ids = append(ids, "fig4", "table4")
	}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			checkForkIdentity(t, id, mask)
		})
	}
}
