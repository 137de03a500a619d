package experiments

import (
	"bytes"
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
		Perf: []BenchPerf{{ID: "fig3", PagesTracked: 42}},
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
	bad.Perf[0].PagesTracked = -1
	if err := ValidateBenchReport(marshal(bad)); err == nil {
		t.Error("negative pages_tracked accepted")
	}
	bad = perfReport()
	bad.Perf = append(bad.Perf, BenchPerf{ID: "fig3", PagesTracked: 43})
	if err := ValidateBenchReport(marshal(bad)); err == nil {
		t.Error("repeated perf id accepted")
	}
}

// TestCompareBenchReports pins the regression gate's semantics: an exact
// match on every section.
func TestCompareBenchReports(t *testing.T) {
	base := perfReport()
	if err := CompareBenchReports(base, perfReport()); err != nil {
		t.Fatalf("identical reports: %v", err)
	}

	cand := perfReport()
	cand.Perf[0].PagesTracked = 41
	if err := CompareBenchReports(base, cand); err == nil {
		t.Error("pages_tracked drift accepted")
	}

	cand = perfReport()
	cand.Experiments[0].Tables[0].Rows[0][0] = "2"
	if err := CompareBenchReports(base, cand); err == nil {
		t.Error("diverging tables accepted")
	}

	cand = perfReport()
	cand.Perf = nil
	if err := CompareBenchReports(base, cand); err == nil {
		t.Error("missing perf entry accepted")
	}

	cand = perfReport()
	cand.Seed++
	if err := CompareBenchReports(base, cand); err == nil {
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
	base.Perf = append(base.Perf, BenchPerf{ID: "fig5", PagesTracked: 99})

	cand := perfReport()
	cand.Experiments = append(cand.Experiments, base.Experiments[1])
	cand.Experiments[1].Tables = []BenchTable{{Caption: "c5", Headers: []string{"a"}, Rows: [][]string{{"6"}}}}
	cand.Experiments[0].Tables[0].Rows[0][0] = "2" // table divergence #1
	cand.Perf = append(cand.Perf, base.Perf[1])
	cand.Perf[0].PagesTracked = 41 // workload drift #1
	cand.Perf[1].PagesTracked = 98 // workload drift #2

	err := CompareBenchReports(base, cand)
	if err == nil {
		t.Fatal("four simultaneous mismatches accepted")
	}
	for _, want := range []string{
		"fig3: result tables diverge",
		"fig5: result tables diverge",
		"pages_tracked 41",
		"pages_tracked 98",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("accumulated error missing %q:\n%v", want, err)
		}
	}

	// A candidate missing experiments must not panic on the shorter list
	// and must still surface the length mismatch.
	short := perfReport()
	if err := CompareBenchReports(base, short); err == nil ||
		!strings.Contains(err.Error(), "1 experiments, baseline has 2") {
		t.Errorf("length mismatch not reported: %v", err)
	}
}
