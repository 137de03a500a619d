package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cliflags"
	"repro/internal/experiments"
	"repro/internal/obsdiff"
)

// TestParseTrajectoryTolerance pins the -trajectory-tolerance validation:
// -1 disables, fractions in [0, 1) need -trajectory, everything else is
// rejected up front.
func TestParseTrajectoryTolerance(t *testing.T) {
	cases := []struct {
		name       string
		tol        float64
		trajectory string
		wantErr    bool
	}{
		{name: "disabled", tol: -1},
		{name: "disabled ignores missing trajectory", tol: -1, trajectory: ""},
		{name: "zero tolerance", tol: 0, trajectory: "t.jsonl"},
		{name: "half", tol: 0.5, trajectory: "t.jsonl"},
		{name: "needs trajectory", tol: 0.5, wantErr: true},
		{name: "one is too much", tol: 1, trajectory: "t.jsonl", wantErr: true},
		{name: "negative", tol: -0.5, trajectory: "t.jsonl", wantErr: true},
		{name: "NaN", tol: math.NaN(), trajectory: "t.jsonl", wantErr: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := parseTrajectoryTolerance(c.tol, c.trajectory); (err != nil) != c.wantErr {
				t.Errorf("parseTrajectoryTolerance(%v, %q) err = %v, wantErr %v",
					c.tol, c.trajectory, err, c.wantErr)
			}
		})
	}
}

// TestAppendTrajectoryGate exercises the regression gate end to end on a
// real history file: a pages/sec drop past the tolerance fails before
// anything is appended, a within-tolerance result appends, and -1 turns
// the gate off entirely.
func TestAppendTrajectoryGate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "traj.jsonl")
	committed := []experiments.BenchPerf{{
		ID: "fig3", PagesTracked: 100, PagesPerSec: 1000, SpeedupVsUncached: 2,
	}}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := experiments.AppendTrajectory(f, "base", committed); err != nil {
		t.Fatal(err)
	}
	f.Close()

	lines := func() int {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Count(string(data), "\n")
	}

	regressed := []experiments.BenchPerf{{
		ID: "fig3", PagesTracked: 100, PagesPerSec: 400, SpeedupVsUncached: 2,
	}}
	err = appendTrajectory(path, "new", regressed, 0.5)
	if err == nil || !strings.Contains(err.Error(), "fig3") {
		t.Fatalf("regressed append err = %v, want error naming fig3", err)
	}
	if got := lines(); got != 1 {
		t.Errorf("failed gate appended anyway: %d lines, want 1", got)
	}

	ok := []experiments.BenchPerf{{
		ID: "fig3", PagesTracked: 100, PagesPerSec: 600, SpeedupVsUncached: 2,
	}}
	if err := appendTrajectory(path, "new", ok, 0.5); err != nil {
		t.Fatalf("within-tolerance append: %v", err)
	}
	if got := lines(); got != 2 {
		t.Errorf("after passing gate: %d lines, want 2", got)
	}

	// Gate off: even a hard regression appends (the pre-gate behavior).
	if err := appendTrajectory(path, "new", regressed, -1); err != nil {
		t.Fatalf("gate-off append: %v", err)
	}
	if got := lines(); got != 3 {
		t.Errorf("after gate-off append: %d lines, want 3", got)
	}
}

// TestWriteCaptureBundle runs one cheap experiment with every plane on,
// writes the -capture bundle, and proves the bundle is exactly what the
// diff engine reads: all four files exist, the capture loads, and the
// self-diff is empty.
func TestWriteCaptureBundle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cap")
	opt := benchOptions(1, false, 0, experiments.DefaultSeed, "")
	obs, err := cliflags.ObsFlags{Capture: true}.Build(experiments.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	reg, profiler := obs.Metrics, obs.Profiler
	opt.Metrics = reg
	opt.Profiler = profiler

	res, perf, err := experiments.MeasurePerf("fig5", opt)
	if err != nil {
		t.Fatal(err)
	}
	bf := benchFlags{exp: "fig5", captureDir: dir, commit: "cafe1234"}
	if err := writeCapture(bf, opt, []*experiments.Result{res},
		[]experiments.BenchPerf{perf}, reg, nil, profiler); err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{
		experiments.CaptureBenchFile, experiments.CaptureProfileFile,
		experiments.CaptureExplainFile, experiments.CaptureTrajectoryFile,
	} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Errorf("capture bundle missing %s: %v", name, err)
		}
	}

	c, err := obsdiff.LoadCapture(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c.Bench == nil || c.Profile == nil || c.Explain == nil || len(c.Trajectory) == 0 {
		t.Fatalf("loaded capture missing planes: %+v", c)
	}
	if rep := obsdiff.Diff(c, c); !rep.Empty {
		t.Errorf("self-diff of the capture bundle is not empty: %s", rep.Verdict)
	}
}

// TestCheckBenchWritesDiffArtifacts pins the CI failure path: when the
// bench gate fails, checkBenchOne writes <base>.diff.md and
// <base>.diff.json attribution artifacts naming the diverging cells, and
// the JSON validates against ooh-diff/v1.
func TestCheckBenchWritesDiffArtifacts(t *testing.T) {
	opt := benchOptions(1, false, 0, experiments.DefaultSeed, "")
	res, perf, err := experiments.MeasurePerf("fig5", opt)
	if err != nil {
		t.Fatal(err)
	}
	base := experiments.NewBenchReport(opt, []*experiments.Result{res}, nil)
	base.Perf = []experiments.BenchPerf{perf}
	// Perturb one table cell: the regenerated candidate cannot match.
	if len(base.Experiments) == 0 || len(base.Experiments[0].Tables) == 0 ||
		len(base.Experiments[0].Tables[0].Rows) == 0 {
		t.Fatal("fig5 report has no table rows to perturb")
	}
	base.Experiments[0].Tables[0].Rows[0][0] = "perturbed-by-test"

	dir := t.TempDir()
	basePath := filepath.Join(dir, "BENCH_fig5.json")
	f, err := os.Create(basePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := base.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	gateErr := checkBenchOne(basePath, 0.99, 0)
	if gateErr == nil {
		t.Fatal("perturbed baseline passed the bench gate")
	}
	if !strings.Contains(gateErr.Error(), "attribution:") {
		t.Errorf("gate error does not point at the attribution artifacts: %v", gateErr)
	}

	mdPath := filepath.Join(dir, "BENCH_fig5.diff.md")
	md, err := os.ReadFile(mdPath)
	if err != nil {
		t.Fatalf("diff markdown artifact: %v", err)
	}
	if !strings.Contains(string(md), "perturbed-by-test") {
		t.Errorf("diff markdown does not name the diverging cell:\n%s", md)
	}
	jsonData, err := os.ReadFile(filepath.Join(dir, "BENCH_fig5.diff.json"))
	if err != nil {
		t.Fatalf("diff JSON artifact: %v", err)
	}
	if err := obsdiff.ValidateReport(jsonData); err != nil {
		t.Errorf("diff JSON artifact does not validate: %v", err)
	}
}
