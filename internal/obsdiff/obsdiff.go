// Package obsdiff is the cross-run comparison engine: it ingests two run
// captures - the observability bundle one `oohbench` invocation emits
// (ooh-bench/v1 report, folded call-path profile, ooh-explain/v1 monitor
// report) - and produces an explainable delta
// report that names WHICH call paths, counters and rounds account for a
// regression, not just that numbers moved.
//
// The attribution math rests on the profiler's partition identity: a
// span's inclusive time is its exclusive time plus its children's
// inclusive times, so summing exclusive deltas over any set of call paths
// never double-counts, and summing them over ALL paths equals the total
// inclusive delta exactly. Ranking paths by |exclusive delta| therefore
// decomposes the whole swing into named causes.
//
// Everything is deterministic: captures are deterministic exports, diffs
// are sorted union walks, and the same pair of captures always produces
// byte-identical reports in every format.
package obsdiff

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/experiments"
	"repro/internal/monitor/explain"
	"repro/internal/prof"
)

// Capture is one loaded run capture. Every plane is optional: the diff
// engine compares the planes both captures have and reports the rest as
// unobserved.
type Capture struct {
	// Path is where the capture was loaded from (shown in reports).
	Path string
	// Bench is the ooh-bench/v1 report, nil when absent.
	Bench *experiments.BenchReport
	// Profile is the call-path tree parsed from the folded export, nil
	// when absent.
	Profile *prof.Tree
	// Explain is the ooh-explain/v1 monitor report, nil when absent.
	Explain *explain.Report
}

// Title names the capture in reports: the bench report's experiment ids
// would be ambiguous, so the load path is the identity.
func (c *Capture) Title() string { return c.Path }

// LoadCapture loads a capture from path. A directory is read as a capture
// bundle (experiments.Capture layout: bench.json, profile.folded,
// explain.json - each optional, but at least one must exist). A single
// file is sniffed: JSON documents dispatch on their "schema" field,
// anything else must parse as a folded profile. Malformed or
// schema-unknown inputs are errors.
func LoadCapture(path string) (*Capture, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	c := &Capture{Path: path}
	if !info.IsDir() {
		if err := c.loadFile(path); err != nil {
			return nil, err
		}
		return c, nil
	}

	loaded := 0
	for _, name := range []string{
		experiments.CaptureBenchFile, experiments.CaptureProfileFile,
		experiments.CaptureExplainFile,
	} {
		p := filepath.Join(path, name)
		if _, err := os.Stat(p); os.IsNotExist(err) {
			continue
		}
		if err := c.loadFile(p); err != nil {
			return nil, err
		}
		loaded++
	}
	if loaded == 0 {
		return nil, fmt.Errorf("%s: not a capture directory (no %s, %s or %s)",
			path, experiments.CaptureBenchFile, experiments.CaptureProfileFile,
			experiments.CaptureExplainFile)
	}
	return c, nil
}

// loadFile sniffs one file and merges it into the capture.
func (c *Capture) loadFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) == 0 {
		return fmt.Errorf("%s: empty file", path)
	}
	if trimmed[0] != '{' {
		// Not JSON: must be a folded profile.
		tree, err := prof.ParseFolded(bytes.NewReader(data))
		if err != nil {
			return fmt.Errorf("%s: not a folded profile: %v", path, err)
		}
		c.Profile = tree
		return nil
	}

	// JSON: dispatch on the document's schema tag.
	var tag struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &tag); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	switch tag.Schema {
	case experiments.BenchSchema:
		if err := experiments.ValidateBenchReport(data); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		var rep experiments.BenchReport
		if err := json.Unmarshal(data, &rep); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		c.Bench = &rep
	case explain.Schema:
		var rep explain.Report
		if err := json.Unmarshal(data, &rep); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		c.Explain = &rep
	case "":
		return fmt.Errorf("%s: JSON document has no schema field", path)
	default:
		return fmt.Errorf("%s: unknown schema %q", path, tag.Schema)
	}
	return nil
}
