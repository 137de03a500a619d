package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"maps"
)

// expected holds the simulated outputs recorded at the committed seed
// (perfbench -record); a run at that seed must reproduce them exactly.
//
//go:embed expected/*.json
var expected embed.FS

type expectedFile struct {
	Workload string       `json:"workload"`
	Seed     uint64       `json:"seed"`
	Cells    []cellResult `json:"cells"`
}

// verdict is the correctness of a run: cells attempted and failed over
// every pass, with a line per failure.
type verdict struct {
	attempted, failed int
	failures          []string
	reference         string // what the cells were compared against
	coldRatio         float64
}

// maxFailureLines bounds the failure lines a run prints.
const maxFailureLines = 20

// coldLimit bounds how much faster or slower the first pass of a run may
// be than the median of the later ones. Every pass runs in a fresh
// process, so a pass that reused warm state from an earlier one would
// show as a large ratio; ordinary host noise stays far inside it.
const coldLimit = 2.0

// verify checks every pass of a run: each cell must have succeeded, and
// its output and simulated counts must equal the expected outputs at the
// committed seed, or else those of the run's first pass. A cell fails
// for any difference, so nondeterminism between passes, and between the
// untraced and traced passes, counts as failure.
func verify(w *workload, seed uint64, passes []*passResult) verdict {
	v := verdict{reference: fmt.Sprintf("expected outputs at seed %d", seed)}
	fail := func(cells int, format string, args ...any) {
		v.failed += cells
		if len(v.failures) < maxFailureLines {
			v.failures = append(v.failures, w.name+": "+fmt.Sprintf(format, args...))
		}
	}
	ref, err := loadExpected(w.name, seed)
	if err != nil {
		fail(w.cells, "%v", err)
	}
	if ref == nil {
		v.reference = "the run's first pass"
		ref = passes[0].Cells
	}
	for i, p := range passes {
		v.attempted += w.cells
		if len(p.Cells) != w.cells {
			fail(w.cells, "pass %d: %d cells, want %d", i, len(p.Cells), w.cells)
			continue
		}
		if p.PagesAtStart != 0 {
			fail(w.cells, "pass %d: started with %d pages already reported", i, p.PagesAtStart)
			continue
		}
		for j, c := range p.Cells {
			switch {
			case c.Err != "":
				fail(1, "pass %d cell %s: %s", i, c.ID, c.Err)
			case j >= len(ref) || ref[j].ID != c.ID:
				fail(1, "pass %d cell %s: not in %s", i, c.ID, v.reference)
			case !sameJSON(c.Output, ref[j].Output):
				fail(1, "pass %d cell %s: output %s differs from %s: %s", i, c.ID, c.Output, v.reference, ref[j].Output)
			case !maps.Equal(c.Counts, ref[j].Counts):
				fail(1, "pass %d cell %s: counts %v differ from %s: %v", i, c.ID, c.Counts, v.reference, ref[j].Counts)
			}
		}
	}
	v.coldRatio = coldRatio(passes)
	if v.coldRatio > coldLimit || v.coldRatio*coldLimit < 1 {
		fail(w.cells, "first pass took %.2fx the later passes' median wall time", v.coldRatio)
	}
	return v
}

// coldRatio is the first untraced pass's wall time over the median of
// the later untraced ones, 1 when there are none.
func coldRatio(passes []*passResult) float64 {
	var walls []float64
	for _, p := range passes {
		if !p.Traced {
			walls = append(walls, float64(p.WallNS))
		}
	}
	if len(walls) < 2 {
		return 1
	}
	return walls[0] / median(walls[1:])
}

// add folds the verdict of another workload's passes into v.
func (v *verdict) add(o verdict) {
	v.attempted += o.attempted
	v.failed += o.failed
	v.failures = append(v.failures, o.failures...)
}

// loadExpected returns the recorded cells of a workload, or nil when none
// were recorded at seed.
func loadExpected(name string, seed uint64) ([]cellResult, error) {
	data, err := expected.ReadFile("expected/" + name + ".json")
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var f expectedFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("expected/%s.json: %w", name, err)
	}
	if f.Seed != seed {
		return nil, nil
	}
	return f.Cells, nil
}

func sameJSON(a, b json.RawMessage) bool {
	var ca, cb bytes.Buffer
	if json.Compact(&ca, a) != nil || json.Compact(&cb, b) != nil {
		return false
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}
