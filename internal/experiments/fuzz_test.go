package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/metrics"
	"repro/internal/report"
)

// FuzzValidateBenchReport: the ooh-bench/v1 validator must reject bad
// input with an error, never panic, and a report it accepts must still be
// accepted after a decode and WriteJSON round trip.
func FuzzValidateBenchReport(f *testing.F) {
	for _, name := range []string{"BENCH_fig3.json", "BENCH_fig5.json"} {
		data, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	tab := report.NewTable("caption", "a", "b")
	tab.AddRow("1", 2)
	tab.AddNote("note")
	reg := metrics.NewRegistry()
	reg.Counter("cpu", "events", "pml_log").Add(3)
	var seed bytes.Buffer
	res := &Result{ID: "fig3", Title: "title", Tables: []*report.Table{tab}}
	if err := NewBenchReport(Options{}, []*Result{res}, reg).WriteJSON(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		if ValidateBenchReport(data) != nil {
			return
		}
		var r BenchReport
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatalf("accepted report does not decode: %v", err)
		}
		var out bytes.Buffer
		if err := r.WriteJSON(&out); err != nil {
			t.Fatalf("accepted report does not encode: %v", err)
		}
		if err := ValidateBenchReport(out.Bytes()); err != nil {
			t.Fatalf("re-encoded report rejected: %v\n%s", err, out.Bytes())
		}
	})
}
