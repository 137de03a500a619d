package obsdiff

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/monitor/explain"
)

// FuzzLoadCapture: the capture loader must reject bad input with an
// error, never panic, and a capture it accepts must diff empty against
// itself.
func FuzzLoadCapture(f *testing.F) {
	c := synthCapture("seed", 500, 64, 1000)
	var bench bytes.Buffer
	if err := c.Bench.WriteJSON(&bench); err != nil {
		f.Fatal(err)
	}
	f.Add(bench.Bytes())
	ex, err := json.Marshal(explain.Report{
		Schema: explain.Schema, Title: "t",
		Rounds: []explain.Round{{Sub: "migration", Round: 1, TotalNs: 1500, Count: 1,
			Dominant: "hypervisor/pml_drain", SharePermille: 333, Dirty: 64}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ex)
	f.Add([]byte("migration/round1 1000\nmigration/round1;hypervisor/pml_drain 500\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "capture")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := LoadCapture(path)
		if err != nil {
			return
		}
		if r := Diff(c, c); !r.Empty {
			t.Fatalf("accepted capture does not self-diff empty: %s", r.Verdict)
		}
	})
}
