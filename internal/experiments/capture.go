package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/prof"
)

// A run capture is the on-disk bundle the cross-run diff engine
// (internal/obsdiff) consumes: everything one `oohbench` invocation
// observed, in the exact formats the individual exporters already emit.
// Fixed file names inside one directory keep two captures alignable
// without any manifest.
const (
	// CaptureBenchFile is the ooh-bench/v1 report (required).
	CaptureBenchFile = "bench.json"
	// CaptureProfileFile is the folded-stack call-path profile (optional).
	CaptureProfileFile = "profile.folded"
	// CaptureExplainFile is the ooh-explain/v1 monitor report (optional).
	CaptureExplainFile = "explain.json"
)

// Capture is one run's observability bundle, ready to be written as a
// capture directory. Report is required; the rest is optional and simply
// absent from the directory when nil/empty.
type Capture struct {
	Report *BenchReport
	// Profile is the merged run profiler; written as profile.folded.
	Profile *prof.Profiler
	// Explain is a serialized ooh-explain/v1 report.
	Explain []byte
}

// WriteDir writes the capture bundle into dir, creating it if needed.
// Partially-populated captures are fine - the diff engine treats a
// missing optional file as "this plane was not observed" - so an optional
// file this capture does not carry is removed, lest a reused directory
// pair this run's report with an earlier run's plane. Files WriteDir does
// not own are left alone. A nil Report is an error, and nothing is
// written for it.
func (c Capture) WriteDir(dir string) error {
	if c.Report == nil {
		return fmt.Errorf("capture: no bench report")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	var bench bytes.Buffer
	if err := c.Report.WriteJSON(&bench); err != nil {
		return err
	}
	var folded bytes.Buffer
	if !c.Profile.Tree().Empty() {
		if err := c.Profile.WriteFolded(&folded); err != nil {
			return err
		}
	}
	for _, f := range []struct {
		name string
		data []byte
	}{
		{CaptureBenchFile, bench.Bytes()},
		{CaptureProfileFile, folded.Bytes()},
		{CaptureExplainFile, c.Explain},
	} {
		path := filepath.Join(dir, f.name)
		if len(f.data) == 0 {
			if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return err
			}
			continue
		}
		if err := os.WriteFile(path, f.data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
