package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func perfReport() *BenchReport {
	return &BenchReport{
		Schema: BenchSchema,
		Seed:   DefaultSeed,
		Scale:  1,
		Experiments: []BenchExperiment{{
			ID: "fig3", Title: "t",
			Tables: []BenchTable{{Caption: "c", Headers: []string{"a"}, Rows: [][]string{{"1"}}}},
		}},
		Perf: []BenchPerf{{
			ID: "fig3", WallNS: 100, UncachedWallNS: 1000,
			PagesTracked: 42, PagesPerSec: 420, SpeedupVsUncached: 10,
		}},
	}
}

// TestValidatePerfSection pins the schema rules for the perf entries.
func TestValidatePerfSection(t *testing.T) {
	marshal := func(r *BenchReport) []byte {
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if err := ValidateBenchReport(marshal(perfReport())); err != nil {
		t.Fatalf("valid perf report rejected: %v", err)
	}
	bad := perfReport()
	bad.Perf[0].ID = ""
	if err := ValidateBenchReport(marshal(bad)); err == nil {
		t.Error("empty perf id accepted")
	}
	bad = perfReport()
	bad.Perf[0].WallNS = 0
	if err := ValidateBenchReport(marshal(bad)); err == nil {
		t.Error("zero wall_ns accepted")
	}
	bad = perfReport()
	bad.Perf[0].SpeedupVsUncached = 0
	if err := ValidateBenchReport(marshal(bad)); err == nil {
		t.Error("zero speedup accepted")
	}
}

// TestCompareBenchReports pins the regression gate's semantics: exact
// match on the deterministic sections, tolerance only on the speedup.
func TestCompareBenchReports(t *testing.T) {
	base := perfReport()
	if err := CompareBenchReports(base, perfReport(), 0.5); err != nil {
		t.Fatalf("identical reports: %v", err)
	}

	cand := perfReport()
	cand.Perf[0].SpeedupVsUncached = 5.01 // above the 50% floor of 10x
	if err := CompareBenchReports(base, cand, 0.5); err != nil {
		t.Errorf("speedup within tolerance rejected: %v", err)
	}
	cand.Perf[0].SpeedupVsUncached = 4.99
	if err := CompareBenchReports(base, cand, 0.5); err == nil {
		t.Error("speedup past tolerance accepted")
	} else if !strings.Contains(err.Error(), "speedup_vs_uncached") {
		t.Errorf("wrong error for speedup regression: %v", err)
	}

	cand = perfReport()
	cand.Perf[0].WallNS = 99999 // wall-clock is informational, never gated
	cand.Perf[0].UncachedWallNS = 1
	cand.Perf[0].PagesPerSec = 1
	if err := CompareBenchReports(base, cand, 0.5); err != nil {
		t.Errorf("wall-clock fields must not be gated: %v", err)
	}

	cand = perfReport()
	cand.Perf[0].PagesTracked = 41
	if err := CompareBenchReports(base, cand, 0.5); err == nil {
		t.Error("pages_tracked drift accepted")
	}

	cand = perfReport()
	cand.Experiments[0].Tables[0].Rows[0][0] = "2"
	if err := CompareBenchReports(base, cand, 0.5); err == nil {
		t.Error("diverging tables accepted")
	}

	cand = perfReport()
	cand.Perf = nil
	if err := CompareBenchReports(base, cand, 0.5); err == nil {
		t.Error("missing perf entry accepted")
	}

	cand = perfReport()
	cand.Seed++
	if err := CompareBenchReports(base, cand, 0.5); err == nil {
		t.Error("seed mismatch accepted")
	}
}

// TestCompareBenchReportsAccumulates: the gate must report EVERY
// mismatch in one pass (errors.Join), so a single CI failure shows the
// full regression surface instead of one symptom per run.
func TestCompareBenchReportsAccumulates(t *testing.T) {
	base := perfReport()
	base.Experiments = append(base.Experiments, BenchExperiment{
		ID: "fig5", Title: "t5",
		Tables: []BenchTable{{Caption: "c5", Headers: []string{"a"}, Rows: [][]string{{"5"}}}},
	})
	base.Perf = append(base.Perf, BenchPerf{
		ID: "fig5", WallNS: 100, UncachedWallNS: 1000,
		PagesTracked: 99, PagesPerSec: 990, SpeedupVsUncached: 10,
	})

	cand := perfReport()
	cand.Experiments = append(cand.Experiments, base.Experiments[1])
	cand.Experiments[1].Tables = []BenchTable{{Caption: "c5", Headers: []string{"a"}, Rows: [][]string{{"6"}}}}
	cand.Experiments[0].Tables[0].Rows[0][0] = "2" // table divergence #1
	cand.Perf = append(cand.Perf, base.Perf[1])
	cand.Perf[0].PagesTracked = 41       // workload drift
	cand.Perf[1].SpeedupVsUncached = 1.0 // speedup regression

	err := CompareBenchReports(base, cand, 0.5)
	if err == nil {
		t.Fatal("four simultaneous mismatches accepted")
	}
	for _, want := range []string{
		"fig3: result tables diverge",
		"fig5: result tables diverge",
		"pages_tracked 41",
		"speedup_vs_uncached 1.00",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("accumulated error missing %q:\n%v", want, err)
		}
	}

	// A candidate missing experiments must not panic on the shorter list
	// and must still surface the length mismatch.
	short := perfReport()
	if err := CompareBenchReports(base, short, 0.5); err == nil ||
		!strings.Contains(err.Error(), "1 experiments, baseline has 2") {
		t.Errorf("length mismatch not reported: %v", err)
	}
}

// TestMeasurePerf smokes the cached/uncached measurement on a cheap
// experiment and checks the derived fields are consistent.
func TestMeasurePerf(t *testing.T) {
	res, p, err := MeasurePerf("table1", Options{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || len(res.Tables) == 0 {
		t.Fatal("no result tables")
	}
	if p.ID != "table1" || p.WallNS <= 0 || p.UncachedWallNS <= 0 {
		t.Errorf("bad perf entry: %+v", p)
	}
	if p.PagesTracked <= 0 || p.PagesPerSec <= 0 || p.SpeedupVsUncached <= 0 {
		t.Errorf("bad throughput fields: %+v", p)
	}
	// The entry must survive a report round-trip through the validator.
	rep := &BenchReport{Schema: BenchSchema, Scale: 1, Experiments: []BenchExperiment{{
		ID: res.ID, Title: res.Title,
		Tables: []BenchTable{{Caption: "c", Headers: []string{"h"}, Rows: nil}},
	}}, Perf: []BenchPerf{p}}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateBenchReport(data); err != nil {
		t.Errorf("measured perf entry fails validation: %v", err)
	}
}
