package experiments

import (
	"bytes"
	"fmt"
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
	// CaptureTrajectoryFile holds ooh-trajectory/v1 lines (optional).
	CaptureTrajectoryFile = "trajectory.jsonl"
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
	// Trajectory is one or more ooh-trajectory/v1 lines (validated before
	// writing).
	Trajectory []byte
}

// WriteDir writes the capture bundle into dir, creating it if needed.
// Partially-populated captures are fine - the diff engine treats a
// missing optional file as "this plane was not observed" - but a nil
// Report or invalid Trajectory is an error, and nothing is written for
// an invalid bundle.
func (c Capture) WriteDir(dir string) error {
	if c.Report == nil {
		return fmt.Errorf("capture: no bench report")
	}
	if len(c.Trajectory) > 0 {
		if err := ValidateTrajectory(bytes.NewReader(c.Trajectory)); err != nil {
			return fmt.Errorf("capture: %w", err)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	var bench bytes.Buffer
	if err := c.Report.WriteJSON(&bench); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, CaptureBenchFile), bench.Bytes(), 0o644); err != nil {
		return err
	}
	if !c.Profile.Tree().Empty() {
		var folded bytes.Buffer
		if err := c.Profile.WriteFolded(&folded); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, CaptureProfileFile), folded.Bytes(), 0o644); err != nil {
			return err
		}
	}
	if len(c.Explain) > 0 {
		if err := os.WriteFile(filepath.Join(dir, CaptureExplainFile), c.Explain, 0o644); err != nil {
			return err
		}
	}
	if len(c.Trajectory) > 0 {
		if err := os.WriteFile(filepath.Join(dir, CaptureTrajectoryFile), c.Trajectory, 0o644); err != nil {
			return err
		}
	}
	return nil
}
