package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
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

// FuzzReadTrajectory: the ooh-trajectory/v1 reader must reject bad input
// with an error, never panic, agree with ValidateTrajectory, and read
// back the points it accepted once they are re-encoded one per line. The
// gate over the same history must not panic either.
func FuzzReadTrajectory(f *testing.F) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_trajectory.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)

	f.Fuzz(func(t *testing.T, data []byte) {
		pts, err := ReadTrajectory(bytes.NewReader(data))
		if verr := ValidateTrajectory(bytes.NewReader(data)); (err == nil) != (verr == nil) {
			t.Fatalf("ReadTrajectory error %v, ValidateTrajectory error %v", err, verr)
		}
		fresh := make([]BenchPerf, len(pts))
		for i, pt := range pts {
			fresh[i] = BenchPerf{ID: pt.ID, PagesTracked: pt.PagesTracked,
				PagesPerSec: pt.PagesPerSec / 2, SpeedupVsUncached: pt.SpeedupVsUncached / 2}
		}
		CheckTrajectory(bytes.NewReader(data), fresh, 0.2)
		if err != nil {
			return
		}

		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, pt := range pts {
			if err := enc.Encode(pt); err != nil {
				t.Fatalf("accepted point does not encode: %v", err)
			}
		}
		back, err := ReadTrajectory(&buf)
		if err != nil {
			t.Fatalf("re-encoded points rejected: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(back, pts) {
			t.Fatalf("round trip changed the points:\nread:  %+v\nagain: %+v", pts, back)
		}
	})
}
