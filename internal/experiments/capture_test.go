package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/prof"
	"repro/internal/sim"
)

func TestCaptureWriteDir(t *testing.T) {
	dir := t.TempDir()

	p := prof.New()
	var clock sim.Clock
	tap := p.Tap(&clock)
	sp := tap.Begin("criu", "dump")
	clock.AdvanceNanos(7)
	sp.End()

	c := Capture{
		Report:  perfReport(),
		Profile: p,
		Explain: []byte(`{"schema":"ooh-explain/v1","title":"t"}`),
	}
	if err := c.WriteDir(filepath.Join(dir, "cap")); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		CaptureBenchFile, CaptureProfileFile, CaptureExplainFile,
	} {
		b, err := os.ReadFile(filepath.Join(dir, "cap", name))
		if err != nil || len(b) == 0 {
			t.Errorf("capture file %s: %v (%d bytes)", name, err, len(b))
		}
	}

	// The bundled report must be schema-valid and the profile parseable.
	bench, err := os.ReadFile(filepath.Join(dir, "cap", CaptureBenchFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateBenchReport(bench); err != nil {
		t.Errorf("bundled report invalid: %v", err)
	}
	folded, err := os.ReadFile(filepath.Join(dir, "cap", CaptureProfileFile))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := prof.ParseFolded(bytes.NewReader(folded))
	if err != nil || tree.Empty() {
		t.Errorf("bundled profile unparseable: %v", err)
	}

	// Minimal capture: report only, nothing else written.
	min := Capture{Report: perfReport()}
	minDir := filepath.Join(dir, "min")
	if err := min.WriteDir(minDir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(minDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != CaptureBenchFile {
		t.Errorf("minimal capture wrote %v, want just %s", entries, CaptureBenchFile)
	}

	// A capture without a report is rejected before anything lands on disk.
	noneDir := filepath.Join(dir, "none")
	if err := (Capture{}).WriteDir(noneDir); err == nil {
		t.Error("capture without a report accepted")
	}
	if _, err := os.Stat(noneDir); !os.IsNotExist(err) {
		t.Error("rejected capture left files behind")
	}
}
