package experiments

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// TrajectorySchema identifies the bench-trajectory line format: one JSON
// object per line, appended per CI run, tracking host throughput over the
// repo's history. Bump only on breaking changes.
const TrajectorySchema = "ooh-trajectory/v1"

// TrajectoryPoint is one experiment's perf measurement pinned to a commit.
// It is the append-only longitudinal view of BenchPerf: CI appends one
// line per perf-measured experiment per run to BENCH_trajectory.jsonl, so
// regressions show up as a trend rather than a single gate flip.
type TrajectoryPoint struct {
	Schema            string  `json:"schema"`
	Commit            string  `json:"commit"`
	ID                string  `json:"id"`
	PagesTracked      int64   `json:"pages_tracked"`
	PagesPerSec       float64 `json:"pages_per_sec"`
	SpeedupVsUncached float64 `json:"speedup_vs_uncached"`
}

// AppendTrajectory writes one trajectory line per perf result to w.
// Commit may be empty (recorded as such); CI passes the current SHA.
func AppendTrajectory(w io.Writer, commit string, perf []BenchPerf) error {
	enc := json.NewEncoder(w)
	for _, p := range perf {
		pt := TrajectoryPoint{
			Schema:            TrajectorySchema,
			Commit:            commit,
			ID:                p.ID,
			PagesTracked:      p.PagesTracked,
			PagesPerSec:       p.PagesPerSec,
			SpeedupVsUncached: p.SpeedupVsUncached,
		}
		if err := enc.Encode(pt); err != nil {
			return err
		}
	}
	return nil
}

// ValidateTrajectory checks every non-blank line of r against the
// trajectory schema. Used by tests and by CI before appending, so a
// corrupt file is caught rather than extended.
func ValidateTrajectory(r io.Reader) error {
	_, err := ReadTrajectory(r)
	return err
}

// ReadTrajectory parses and validates every non-blank line of a
// trajectory file, preserving file (append) order.
func ReadTrajectory(r io.Reader) ([]TrajectoryPoint, error) {
	var pts []TrajectoryPoint
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var pt TrajectoryPoint
		if err := json.Unmarshal(sc.Bytes(), &pt); err != nil {
			return nil, fmt.Errorf("trajectory line %d: %w", line, err)
		}
		if pt.Schema != TrajectorySchema {
			return nil, fmt.Errorf("trajectory line %d: schema %q, want %q", line, pt.Schema, TrajectorySchema)
		}
		if pt.ID == "" {
			return nil, fmt.Errorf("trajectory line %d: missing experiment id", line)
		}
		pts = append(pts, pt)
	}
	return pts, sc.Err()
}

// CheckTrajectory is the longitudinal throughput gate: each fresh perf
// measurement is compared against the LAST committed trajectory line with
// the same experiment id, and the check fails when pages_per_sec drops
// below committed*(1-tol). A fresh point that tracks no pages (the
// fork-vs-boot bench) has no throughput; it is gated the same way on
// speedup_vs_uncached. Experiments with no committed line (a new
// benchmark's first line, or an id the history has never seen) pass - the
// gate only ever compares like against like. All regressions are
// accumulated (errors.Join). A corrupt history is itself an error.
func CheckTrajectory(history io.Reader, fresh []BenchPerf, tol float64) error {
	if !(tol >= 0 && tol < 1) { // NaN fails every comparison: reject it too
		return fmt.Errorf("trajectory tolerance %v outside [0, 1)", tol)
	}
	pts, err := ReadTrajectory(history)
	if err != nil {
		return err
	}
	last := make(map[string]TrajectoryPoint, len(pts))
	for _, pt := range pts {
		last[pt.ID] = pt // later lines win: the newest committed point
	}
	var errs []error
	for _, p := range fresh {
		committed, ok := last[p.ID]
		if !ok {
			continue // first line for this experiment
		}
		field, got, was := "pages_per_sec", p.PagesPerSec, committed.PagesPerSec
		if p.PagesTracked == 0 {
			field, got, was = "speedup_vs_uncached", p.SpeedupVsUncached, committed.SpeedupVsUncached
		}
		if floor := was * (1 - tol); got < floor {
			errs = append(errs, fmt.Errorf(
				"%s: %s %.6g regressed below %.6g (last committed %.6g at %s, tolerance %.0f%%)",
				p.ID, field, got, floor, was, commitLabel(committed.Commit), tol*100))
		}
	}
	return errors.Join(errs...)
}

func commitLabel(commit string) string {
	if commit == "" {
		return "unknown commit"
	}
	return commit
}
