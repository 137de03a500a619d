package obsdiff

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/monitor/explain"
	"repro/internal/prof"
)

// benchCapture runs fig5 with the given options, bundles the run as a
// capture directory, and loads it back - the exact round trip the
// oohbench -capture / oohdiff pipeline performs.
func benchCapture(t *testing.T, name string, scale int) *Capture {
	t.Helper()
	opt := experiments.Options{Scale: scale}
	reg := metrics.NewRegistry()
	p := prof.New()
	opt.Metrics = reg
	opt.Profiler = p
	res, err := experiments.Run("fig5", opt)
	if err != nil {
		t.Fatal(err)
	}
	rep := experiments.NewBenchReport(opt, []*experiments.Result{res}, reg)
	dir := filepath.Join(t.TempDir(), name)
	if err := (experiments.Capture{Report: rep, Profile: p}).WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	c, err := LoadCapture(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c.Bench == nil || c.Profile == nil {
		t.Fatalf("capture round trip lost planes: bench=%v profile=%v", c.Bench != nil, c.Profile != nil)
	}
	return c
}

// TestSelfDiffIsEmpty pins the acceptance criterion: diffing a run
// against itself yields an empty delta report, with golden markdown.
func TestSelfDiffIsEmpty(t *testing.T) {
	c := benchCapture(t, "self", 1)
	c.Path = "run" // stable name for the golden
	r := Diff(c, c)
	if !r.Empty {
		var md bytes.Buffer
		r.WriteMarkdown(&md)
		t.Fatalf("self-diff not empty:\n%s", md.String())
	}
	if r.TotalInclDeltaNs != 0 || len(r.TopPaths) != 0 || len(r.Counters) != 0 ||
		len(r.Gauges) != 0 || len(r.Histograms) != 0 || len(r.Tables) != 0 {
		t.Errorf("self-diff carries deltas: %+v", r)
	}

	var md bytes.Buffer
	if err := r.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	golden := "# Run diff: run vs run\n\n" +
		"**Verdict:** no differences: the runs' observed planes are identical\n\n"
	if md.String() != golden {
		t.Errorf("self-diff markdown:\n%q\nwant\n%q", md.String(), golden)
	}

	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if err := ValidateReport(js.Bytes()); err != nil {
		t.Errorf("self-diff report fails validation: %v", err)
	}

	// The diff-flamegraph of a self-diff lists live rows with zero delta;
	// the pprof diff carries no samples at all.
	var folded bytes.Buffer
	if err := r.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(folded.String()), "\n") {
		if line != "" && !strings.HasSuffix(line, " 0") {
			t.Errorf("self-diff folded row has nonzero delta: %q", line)
		}
	}
}

// TestTwoRunAttribution pins the other acceptance criterion: diffing two
// genuinely different fig5 runs produces an ooh-diff/v1 report whose top
// attributed call-path deltas sum to >=90% of the total inclusive-ns
// delta. (Scales differ rather than seeds: the virtual-time plane is
// deterministic in the data seed by design, so only workload shape moves
// the profile.)
func TestTwoRunAttribution(t *testing.T) {
	old := benchCapture(t, "old", 1)
	new := benchCapture(t, "new", 2)
	r := Diff(old, new)
	if r.Empty || r.TotalInclDeltaNs == 0 {
		t.Fatal("different scales diffed empty")
	}
	if r.AttributedPermille < 900 {
		t.Errorf("attribution covers %d permille, want >= 900", r.AttributedPermille)
	}
	if len(r.TopPaths) == 0 || len(r.TopPaths) > len(r.CallPaths) {
		t.Fatalf("top paths %d / call paths %d", len(r.TopPaths), len(r.CallPaths))
	}

	// Partition identity: exclusive deltas sum exactly to the total.
	var sum int64
	for _, p := range r.CallPaths {
		sum += p.ExclDeltaNs
	}
	if sum != r.TotalInclDeltaNs {
		t.Errorf("excl deltas sum to %d, total is %d", sum, r.TotalInclDeltaNs)
	}

	// And the claimed coverage is real: the top paths' deltas reach it.
	var top int64
	for _, p := range r.TopPaths {
		top += p.ExclDeltaNs
	}
	if top < 0 {
		top = -top
	}
	absTotal := r.TotalInclDeltaNs
	if absTotal < 0 {
		absTotal = -absTotal
	}
	if got := top * 1000 / absTotal; got != r.AttributedPermille {
		t.Errorf("attributed_permille says %d, recomputed %d", r.AttributedPermille, got)
	}

	// The verdict names the leading path.
	if !strings.Contains(r.Verdict, r.TopPaths[0].Path) {
		t.Errorf("verdict %q does not name top path %q", r.Verdict, r.TopPaths[0].Path)
	}

	// Table cells diverge across scales and are itemized per cell.
	if len(r.Tables) == 0 {
		t.Error("scale change produced no table cell deltas")
	}

	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if err := ValidateReport(js.Bytes()); err != nil {
		t.Errorf("report fails its own schema: %v", err)
	}

	// Determinism: rebuilding the diff produces byte-identical exports.
	r2 := Diff(old, new)
	var js2, md, md2, fold, fold2, pb, pb2 bytes.Buffer
	r2.WriteJSON(&js2)
	r.WriteMarkdown(&md)
	r2.WriteMarkdown(&md2)
	r.WriteFolded(&fold)
	r2.WriteFolded(&fold2)
	r.WritePprof(&pb)
	r2.WritePprof(&pb2)
	if js.String() != js2.String() || md.String() != md2.String() ||
		fold.String() != fold2.String() || !bytes.Equal(pb.Bytes(), pb2.Bytes()) {
		t.Error("rebuilt diff is not byte-identical")
	}
	if !strings.Contains(md.String(), "## Attribution") {
		t.Errorf("markdown missing attribution section:\n%s", md.String()[:200])
	}
}

// synthCapture builds an in-memory capture with every plane populated,
// for tests that need full control over the inputs.
func synthCapture(path string, drainNs int64, dirty int, pages int64) *Capture {
	tree := func() *prof.Tree {
		var buf bytes.Buffer
		buf.WriteString("migration/round1 1000\n")
		buf.WriteString("migration/round1;hypervisor/pml_drain " +
			jsonNum(drainNs) + "\n")
		t, err := prof.ParseFolded(&buf)
		if err != nil {
			panic(err)
		}
		return t
	}()
	return &Capture{
		Path: path,
		Bench: &experiments.BenchReport{
			Schema: experiments.BenchSchema, Seed: 1, Scale: 1,
			Experiments: []experiments.BenchExperiment{{
				ID: "fig5", Title: "t",
				Tables: []experiments.BenchTable{{
					Caption: "c", Headers: []string{"h"},
					Rows: [][]string{{jsonNum(drainNs)}},
				}},
			}},
			Perf: []experiments.BenchPerf{{ID: "fig5", PagesTracked: pages}},
		},
		Profile: tree,
		Explain: &explain.Report{
			Schema: explain.Schema,
			Rounds: []explain.Round{{
				Sub: "migration", Round: 1, TotalNs: 1000 + drainNs,
				Dominant: "hypervisor/pml_drain", Dirty: dirty,
			}},
		},
	}
}

func jsonNum(v int64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestDiffFusesAllPlanes drives the synthetic pair through every report
// section: rounds (explain-sourced dirty sizes), tables, pages tracked.
func TestDiffFusesAllPlanes(t *testing.T) {
	old := synthCapture("old", 500, 64, 1000)
	new := synthCapture("new", 900, 96, 800)
	r := Diff(old, new)
	if r.Empty {
		t.Fatal("synthetic pair diffed empty")
	}
	if r.TotalInclDeltaNs != 400 {
		t.Errorf("total incl delta = %d, want 400", r.TotalInclDeltaNs)
	}
	if len(r.Rounds) != 1 {
		t.Fatalf("rounds: %+v", r.Rounds)
	}
	rd := r.Rounds[0]
	if rd.Sub != "migration" || rd.Round != 1 || rd.DeltaNs != 400 ||
		rd.OldDirty != 64 || rd.NewDirty != 96 || rd.DominantMoved {
		t.Errorf("round delta: %+v", rd)
	}
	if len(r.Tables) != 1 || r.Tables[0].Old != "500" || r.Tables[0].New != "900" {
		t.Errorf("table deltas: %+v", r.Tables)
	}
	if len(r.Perf) != 1 || r.Perf[0].OldPagesTracked != 1000 || r.Perf[0].NewPagesTracked != 800 {
		t.Errorf("perf deltas: %+v", r.Perf)
	}
	if len(r.TopPaths) == 0 || r.TopPaths[0].Path != "migration/round1;hypervisor/pml_drain" {
		t.Errorf("top path: %+v", r.TopPaths)
	}
	// The markdown names the dirty sizes, the diverging cell and the
	// pages-tracked drift.
	var md bytes.Buffer
	if err := r.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"64→96", "| 500 | 900 |", "hypervisor/pml_drain", "| fig5 | 1000→800 |"} {
		if !strings.Contains(md.String(), want) {
			t.Errorf("markdown missing %q:\n%s", want, md.String())
		}
	}
}

func TestLoadCaptureSniffsSingleFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	var bench bytes.Buffer
	rep := synthCapture("x", 1, 1, 1).Bench
	if err := rep.WriteJSON(&bench); err != nil {
		t.Fatal(err)
	}
	c, err := LoadCapture(write("report.json", bench.String()))
	if err != nil || c.Bench == nil || c.Profile != nil {
		t.Errorf("bench sniff: %v %+v", err, c)
	}

	c, err = LoadCapture(write("prof.folded", "criu/dump 7\n"))
	if err != nil || c.Profile == nil || c.Bench != nil {
		t.Errorf("folded sniff: %v %+v", err, c)
	}

	c, err = LoadCapture(write("explain.json", `{"schema":"ooh-explain/v1","title":"t"}`))
	if err != nil || c.Explain == nil {
		t.Errorf("explain sniff: %v %+v", err, c)
	}

	for name, content := range map[string]string{
		"empty":     "",
		"unknown":   `{"schema":"ooh-widget/v9"}`,
		"noschema":  `{"title":"x"}`,
		"badfolded": "no-namespace 10\n",
		"badbench":  `{"schema":"ooh-bench/v1"}`, // fails schema validation
	} {
		if _, err := LoadCapture(write(name, content)); err == nil {
			t.Errorf("%s: bad input accepted", name)
		}
	}
	if _, err := LoadCapture(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing path accepted")
	}
	empty := filepath.Join(dir, "emptydir")
	os.MkdirAll(empty, 0o755)
	if _, err := LoadCapture(empty); err == nil {
		t.Error("empty directory accepted as capture")
	}
}

func TestValidateReportRejectsTampering(t *testing.T) {
	r := Diff(synthCapture("old", 500, 64, 1000), synthCapture("new", 900, 96, 800))
	marshal := func(mutate func(m map[string]any)) []byte {
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		if mutate != nil {
			mutate(m)
		}
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if err := ValidateReport(marshal(nil)); err != nil {
		t.Fatalf("genuine report rejected: %v", err)
	}
	cases := map[string]func(m map[string]any){
		"wrong schema":       func(m map[string]any) { m["schema"] = "ooh-bench/v1" },
		"missing capture":    func(m map[string]any) { m["old"] = "" },
		"empty verdict":      func(m map[string]any) { m["verdict"] = "" },
		"bad permille":       func(m map[string]any) { m["attributed_permille"] = 1001.0 },
		"broken partition":   func(m map[string]any) { m["total_incl_delta_ns"] = 7.0 },
		"inconsistent empty": func(m map[string]any) { m["empty"] = true },
	}
	for name, mutate := range cases {
		if err := ValidateReport(marshal(mutate)); err == nil {
			t.Errorf("%s: tampered report accepted", name)
		}
	}
	if err := ValidateReport([]byte("not json")); err == nil {
		t.Error("non-JSON accepted")
	}
}
