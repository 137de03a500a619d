package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cliflags"
	"repro/internal/experiments"
	"repro/internal/obsdiff"
	"repro/internal/prof"
	"repro/internal/sim"
)

// TestRunExperimentCountsPages pins the pages_tracked count every report
// carries: one run's tracking.PagesReported delta, the same on a rerun
// (it counts simulated events), and zero for Table II, which simulates
// nothing.
func TestRunExperimentCountsPages(t *testing.T) {
	opt := benchOptions(1, false, 0, experiments.DefaultSeed, "")
	res, p, err := runExperiment("table1", opt)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || len(res.Tables) == 0 {
		t.Fatal("no result tables")
	}
	if p.ID != "table1" || p.PagesTracked <= 0 {
		t.Errorf("bad perf entry: %+v", p)
	}
	if _, again, err := runExperiment("table1", opt); err != nil || again != p {
		t.Errorf("rerun counted %+v (err %v), first run %+v", again, err, p)
	}
	if _, p2, err := runExperiment("table2", opt); err != nil || p2 != (experiments.BenchPerf{ID: "table2"}) {
		t.Errorf("table2 counted %+v (err %v), want no pages", p2, err)
	}
	if _, _, err := runExperiment("fig99", opt); err == nil || !strings.Contains(err.Error(), "fig99") {
		t.Errorf("unknown experiment err = %v, want one naming fig99", err)
	}
}

// TestWriteCaptureBundle runs one cheap experiment with every plane on,
// writes the -capture bundle, and proves the bundle is exactly what the
// diff engine reads: all three files exist, the capture loads with its
// pages-tracked count, and the self-diff is empty.
func TestWriteCaptureBundle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cap")
	opt := benchOptions(1, false, 0, experiments.DefaultSeed, "")
	obs, err := cliflags.ObsFlags{Capture: true}.Build(experiments.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	opt.Metrics = obs.Metrics
	opt.Profiler = obs.Profiler

	res, perf, err := runExperiment("fig5", opt)
	if err != nil {
		t.Fatal(err)
	}
	rep := experiments.NewBenchReport(opt, []*experiments.Result{res}, obs.Metrics)
	rep.Perf = []experiments.BenchPerf{perf}
	if err := writeCapture(dir, explainTitle("fig5"), rep, obs); err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{
		experiments.CaptureBenchFile, experiments.CaptureProfileFile, experiments.CaptureExplainFile,
	} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Errorf("capture bundle missing %s: %v", name, err)
		}
	}

	c, err := obsdiff.LoadCapture(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c.Bench == nil || c.Profile == nil || c.Explain == nil {
		t.Fatalf("loaded capture missing planes: %+v", c)
	}
	if len(c.Bench.Perf) != 1 || c.Bench.Perf[0] != perf || perf.PagesTracked <= 0 {
		t.Errorf("capture carries perf %+v, want [%+v] with pages tracked", c.Bench.Perf, perf)
	}
	if rep := obsdiff.Diff(c, c); !rep.Empty {
		t.Errorf("self-diff of the capture bundle is not empty: %s", rep.Verdict)
	}
}

// TestCaptureDirReuse: writing a capture into a directory that holds an
// earlier one must not leave the earlier run's optional planes behind for
// oohdiff to read as this run's, and must not touch files the bundle
// does not own.
func TestCaptureDirReuse(t *testing.T) {
	dir := t.TempDir()
	p := prof.New()
	var clock sim.Clock
	sp := p.Tap(&clock).Begin("criu", "dump")
	clock.AdvanceNanos(7)
	sp.End()
	report := func(id string) *experiments.BenchReport {
		return &experiments.BenchReport{
			Schema: experiments.BenchSchema, Scale: 1,
			Experiments: []experiments.BenchExperiment{{ID: id, Title: id,
				Tables: []experiments.BenchTable{{Caption: "c", Headers: []string{"h"}}}}},
		}
	}
	first := experiments.Capture{Report: report("fig5"), Profile: p,
		Explain: []byte(`{"schema":"ooh-explain/v1","title":"fig5"}`)}
	if err := first.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	notes := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(notes, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := (experiments.Capture{Report: report("table2")}).WriteDir(dir); err != nil {
		t.Fatal(err)
	}

	c, err := obsdiff.LoadCapture(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c.Profile != nil || c.Explain != nil {
		t.Errorf("reused capture directory still carries the earlier run's planes: profile %v, explain %v",
			c.Profile != nil, c.Explain != nil)
	}
	if c.Bench == nil || c.Bench.Experiments[0].ID != "table2" {
		t.Errorf("reused capture directory lost the new report: %+v", c.Bench)
	}
	if b, err := os.ReadFile(notes); err != nil || string(b) != "keep" {
		t.Errorf("a file the bundle does not own was touched: %q, %v", b, err)
	}
}

// TestCheckBenchWritesDiffArtifacts pins the CI failure path: when the
// bench gate fails, checkBenchOne writes <base>.diff.md and
// <base>.diff.json attribution artifacts naming the diverging cells, and
// the JSON validates against ooh-diff/v1.
func TestCheckBenchWritesDiffArtifacts(t *testing.T) {
	opt := benchOptions(1, false, 0, experiments.DefaultSeed, "")
	res, perf, err := runExperiment("fig5", opt)
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

	gateErr := checkBenchOne(basePath, 0)
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
