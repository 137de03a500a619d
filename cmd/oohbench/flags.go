package main

import (
	"fmt"
	"strings"

	"repro/internal/cliflags"
	"repro/internal/experiments"
	"repro/internal/tracking"
)

// benchOptions assembles experiment options from the parsed CLI flags.
// SeedSet is always true here: the -seed flag carries a default, so the
// value it holds was chosen either by the user or by that default - in
// particular an explicit `-seed 0` is honored as seed zero instead of
// being remapped to 42.
func benchOptions(scale int, full bool, workers int, seed uint64, faultSpec string) experiments.Options {
	return experiments.Options{
		Scale:     scale,
		Full:      full,
		Workers:   workers,
		Seed:      seed,
		SeedSet:   true,
		FaultSpec: faultSpec,
	}
}

// parseJSONPath validates a -json flag value: empty disables the report,
// "-" selects stdout, anything else must end in .json.
func parseJSONPath(p string) error {
	p = strings.TrimSpace(p)
	if p == "" || p == "-" || strings.HasSuffix(p, ".json") {
		return nil
	}
	return fmt.Errorf("bench report path %q must be \"-\" or end in .json", p)
}

// runExperiment runs experiment id once - Table II counts this
// checkout's lines instead of simulating - and counts the dirty pages its
// tracking techniques reported: the tracking.PagesReported delta over the
// run, as perfbench's paper-eval counts it. oohbench's report and
// -check-bench's candidates both come from here.
func runExperiment(id string, opt experiments.Options) (*experiments.Result, experiments.BenchPerf, error) {
	pages0 := tracking.PagesReported()
	var (
		res *experiments.Result
		err error
	)
	if id == "table2" {
		res, err = experiments.Table2(countRepoLOC())
	} else {
		res, err = experiments.Run(id, opt)
	}
	if err != nil {
		return nil, experiments.BenchPerf{}, fmt.Errorf("%s: %w", id, err)
	}
	return res, experiments.BenchPerf{ID: id, PagesTracked: tracking.PagesReported() - pages0}, nil
}

// explainTitle names an oohbench run in its explain report.
func explainTitle(exp string) string {
	if exp == "" {
		return "oohbench"
	}
	return "oohbench " + exp
}

// writeCapture bundles the run's observability planes into the -capture
// directory: the ooh-bench/v1 report, the folded call-path profile and an
// ooh-explain/v1 report built from whatever planes the run had. The
// bundle is exactly what obsdiff.LoadCapture reads, so two bundles diff
// without any glue.
func writeCapture(dir, title string, rep *experiments.BenchReport, obs *cliflags.Obs) error {
	explainJSON, err := cliflags.ExplainJSON(title, obs.Monitor, obs.Metrics, obs.Profiler)
	if err != nil {
		return fmt.Errorf("capture: building explain report: %w", err)
	}
	return experiments.Capture{Report: rep, Profile: obs.Profiler, Explain: explainJSON}.WriteDir(dir)
}
