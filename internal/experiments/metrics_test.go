package experiments

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// runObservedScenarios drives a representative mix of scenarios - micro
// under all four techniques, a CRIU checkpoint, a Boehm GC run and a
// faulted resilient run - with the given probes attached, touching every
// instrumented layer.
func runObservedScenarios(t *testing.T, p machine.Config) {
	t.Helper()
	for _, kind := range []costmodel.Technique{
		costmodel.Proc, costmodel.Ufd, costmodel.SPML, costmodel.EPML,
	} {
		if _, err := runMicro(kind, 4<<8, 1, p, false); err != nil {
			t.Fatalf("runMicro(%v): %v", kind, err)
		}
	}
	if _, err := runCRIU("baby", workloads.Large, 4, costmodel.EPML, 1, p); err != nil {
		t.Fatalf("runCRIU: %v", err)
	}
	if _, err := runBoehm("gcbench", workloads.Small, 1, costmodel.EPML, 1, p); err != nil {
		t.Fatalf("runBoehm: %v", err)
	}
	// A faulted run exercises the faults/tracking retry/degrade/rescan kinds.
	for _, spec := range CannedFaultSpecs {
		if spec.Name == "hc-flaky" || spec.Name == "legacy-host" {
			if _, err := runFaultCell(spec, 7, p); err != nil {
				t.Fatalf("runFaultCell(%s): %v", spec.Name, err)
			}
		}
	}
}

// TestMetricsTraceConsistency pins the plane-consistency invariant: the
// metrics registry's per-kind event counters/histograms and the trace
// plane's Summarize aggregates are two views of one ground truth, equal in
// both directions on the same run.
func TestMetricsTraceConsistency(t *testing.T) {
	var sink trace.Memory
	tr := trace.New(&sink, 1<<16) // full mask: every kind traced
	reg := metrics.NewRegistry()
	runObservedScenarios(t, machine.Config{Tracer: tr, Metrics: reg})
	if err := tr.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("tracer dropped %d records; consistency check needs a lossless trace", tr.Dropped())
	}

	sums := trace.Summarize(sink.Records())
	if len(sums) < 15 {
		t.Fatalf("only %d kinds observed; scenario mix too narrow", len(sums))
	}
	seen := make(map[trace.Kind]bool, len(sums))

	// Direction 1: every traced kind has matching metrics.
	for _, s := range sums {
		seen[s.Kind] = true
		sub, label := metrics.KindSubsystem(s.Kind), s.Kind.String()
		if got := reg.Counter(sub, metrics.NameEvents, label).Value(); got != s.Count {
			t.Errorf("%v: metric count %d != trace count %d", s.Kind, got, s.Count)
		}
		h := reg.Histogram(sub, metrics.NameEventCostNs, label)
		if h.Count() != s.Count {
			t.Errorf("%v: histogram count %d != trace count %d", s.Kind, h.Count(), s.Count)
		}
		if h.Sum() != int64(s.Cost) {
			t.Errorf("%v: histogram cost sum %d != trace cost %d", s.Kind, h.Sum(), int64(s.Cost))
		}
		if s.Arg > 0 {
			if got := reg.Counter(sub, metrics.NameEventArgSum, label).Value(); got != s.Arg {
				t.Errorf("%v: metric arg sum %d != trace arg sum %d", s.Kind, got, s.Arg)
			}
		}
	}

	// Direction 2: no event metric counts something the trace missed.
	kindByName := make(map[string]trace.Kind)
	for k := trace.Kind(0); int(k) < trace.NumKinds(); k++ {
		kindByName[k.String()] = k
	}
	for _, key := range reg.CounterKeys() {
		if key.Name != metrics.NameEvents {
			continue
		}
		v := reg.Counter(key.Subsystem, key.Name, key.Label).Value()
		if v == 0 {
			continue
		}
		k, ok := kindByName[key.Label]
		if !ok {
			t.Errorf("event counter with unknown kind label %q", key.Label)
			continue
		}
		if !seen[k] {
			t.Errorf("%v: metrics counted %d events the trace never saw", k, v)
		}
	}
}

// TestMetricsDeterminism pins the byte-identical invariant: two runs of the
// same seeded scenario produce identical Prometheus and JSONL exports.
func TestMetricsDeterminism(t *testing.T) {
	export := func() (string, string) {
		reg := metrics.NewRegistry()
		reg.NewSampler(250 * time.Microsecond)
		if _, err := runMicro(costmodel.EPML, 10<<8, 3, machine.Config{Metrics: reg}, false); err != nil {
			t.Fatalf("runMicro: %v", err)
		}
		if _, err := runMicro(costmodel.SPML, 4<<8, 3, machine.Config{Metrics: reg}, false); err != nil {
			t.Fatalf("runMicro: %v", err)
		}
		snap := reg.Snapshot()
		var prom, jsonl bytes.Buffer
		if err := snap.WritePrometheus(&prom); err != nil {
			t.Fatalf("prometheus: %v", err)
		}
		if err := snap.WriteJSONL(&jsonl); err != nil {
			t.Fatalf("jsonl: %v", err)
		}
		return prom.String(), jsonl.String()
	}
	prom1, jsonl1 := export()
	prom2, jsonl2 := export()
	if prom1 != prom2 {
		t.Errorf("prometheus exports differ between identically-seeded runs:\n--- run 1\n%s\n--- run 2\n%s", prom1, prom2)
	}
	if jsonl1 != jsonl2 {
		t.Errorf("jsonl exports differ between identically-seeded runs")
	}
	if prom1 == "" || jsonl1 == "" {
		t.Fatalf("empty export")
	}
	// The sampler must have produced at least one series with points.
	snapHasPoints := false
	reg := metrics.NewRegistry()
	reg.NewSampler(250 * time.Microsecond)
	if _, err := runMicro(costmodel.EPML, 10<<8, 3, machine.Config{Metrics: reg}, false); err != nil {
		t.Fatalf("runMicro: %v", err)
	}
	for _, s := range reg.Snapshot().Series {
		if len(s.Points) > 0 {
			snapHasPoints = true
		}
	}
	if !snapHasPoints {
		t.Errorf("sampler produced no points for any default series")
	}
}

// TestBenchReportSchema pins the ooh-bench/v1 report shape end to end:
// assemble from a real experiment, serialize, validate.
func TestBenchReportSchema(t *testing.T) {
	opt := Options{Scale: 1, Runs: 1, Seed: 5}
	res, err := Run("fig3", opt)
	if err != nil {
		t.Fatalf("fig3: %v", err)
	}
	reg := metrics.NewRegistry()
	reg.Counter("cpu", "vmexits_total", "").Add(3)
	rep := NewBenchReport(opt, []*Result{res}, reg)
	if rep.Schema != BenchSchema {
		t.Fatalf("schema %q", rep.Schema)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := ValidateBenchReport(buf.Bytes()); err != nil {
		t.Fatalf("validate: %v", err)
	}

	// Deterministic serialization: same inputs, same bytes.
	var buf2 bytes.Buffer
	if err := NewBenchReport(opt, []*Result{res}, reg).WriteJSON(&buf2); err != nil {
		t.Fatalf("write: %v", err)
	}
	if buf.String() != buf2.String() {
		t.Errorf("bench report serialization is not deterministic")
	}

	// Validation rejects malformed reports.
	for name, data := range map[string]string{
		"bad schema":    `{"schema":"nope/v0","seed":1,"scale":1,"experiments":[{"id":"x","title":"t","tables":[{"caption":"c","headers":["h"],"rows":[["v"]]}]}]}`,
		"no experiment": `{"schema":"ooh-bench/v1","seed":1,"scale":1,"experiments":[]}`,
		"ragged row":    `{"schema":"ooh-bench/v1","seed":1,"scale":1,"experiments":[{"id":"x","title":"t","tables":[{"caption":"c","headers":["h"],"rows":[["v","extra"]]}]}]}`,
		"not json":      `{`,
	} {
		if err := ValidateBenchReport([]byte(data)); err == nil {
			t.Errorf("%s: validation passed, want error", name)
		}
	}
}
