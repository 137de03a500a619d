package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cliflags"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/prof"
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

// parseTrajectoryFlags validates the -trajectory flag: empty disables it,
// otherwise the path must end in .jsonl and the run must measure perf
// (the trajectory records pages-tracked/sec and speedups, which only a
// -perf run produces).
func parseTrajectoryFlags(path string, perf bool) error {
	path = strings.TrimSpace(path)
	if path == "" {
		return nil
	}
	if !strings.HasSuffix(path, ".jsonl") {
		return fmt.Errorf("trajectory path %q must end in .jsonl", path)
	}
	if !perf {
		return fmt.Errorf("-trajectory requires -perf (it records throughput measurements)")
	}
	return nil
}

// parseTrajectoryTolerance validates the -trajectory-tolerance knob: -1
// disables the gate, anything else must be a fraction in [0, 1) and only
// makes sense together with -trajectory (the gate compares against that
// file's committed history).
func parseTrajectoryTolerance(tol float64, trajectory string) error {
	if tol == -1 {
		return nil
	}
	if !(tol >= 0 && tol < 1) { // NaN fails every comparison: reject it too
		return fmt.Errorf("trajectory tolerance %v must be in [0, 1) or -1 to disable", tol)
	}
	if strings.TrimSpace(trajectory) == "" {
		return fmt.Errorf("-trajectory-tolerance requires -trajectory (it gates against that file's history)")
	}
	return nil
}

// appendTrajectory validates the existing trajectory file (a corrupt file
// is an error, not something to extend) and appends one line per perf
// result. With tol >= 0 the existing file is also a regression gate:
// every fresh result is compared against the file's last line with the
// same experiment id, and a pages/sec drop (a speedup drop for a result
// that tracks no pages) past the tolerance fails the run before anything
// is appended.
func appendTrajectory(path, commit string, perf []experiments.BenchPerf, tol float64) error {
	if prev, err := os.Open(path); err == nil {
		verr := experiments.ValidateTrajectory(prev)
		prev.Close()
		if verr != nil {
			return fmt.Errorf("%s: %w", path, verr)
		}
		if tol >= 0 {
			hist, herr := os.Open(path)
			if herr != nil {
				return herr
			}
			gerr := experiments.CheckTrajectory(hist, perf, tol)
			hist.Close()
			if gerr != nil {
				return fmt.Errorf("%s: %w", path, gerr)
			}
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	err = experiments.AppendTrajectory(f, commit, perf)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// runForkBench measures the snapshot-fork fast path against the boot+warm
// prefix it replaces (a 50 MiB micro working set, best of 5) and prints the
// ratio; with -trajectory the result is appended as an ooh-trajectory/v1
// line under the id "fork-vs-boot", where speedup_vs_uncached is the
// boot+warm-to-fork wall-time ratio and pages_tracked/pages_per_sec are 0
// (a fork tracks nothing; -trajectory-tolerance gates the speedup).
func runForkBench(bf benchFlags) error {
	const pages = 50 << 20 >> 12 // 50 MiB of 4 KiB pages
	fb, err := experiments.MeasureForkSpeed(pages, bf.seed, 5)
	if err != nil {
		return err
	}
	fmt.Printf("fork-vs-boot: boot+warm %v, fork %v, %.1fx (%d pages)\n",
		time.Duration(fb.BootWarmNS).Round(time.Microsecond),
		time.Duration(fb.ForkNS).Round(time.Microsecond),
		fb.Speedup, fb.Pages)
	if bf.trajectory != "" {
		if err := appendTrajectory(bf.trajectory, bf.commit, []experiments.BenchPerf{fb.Perf()}, bf.trajTol); err != nil {
			return err
		}
		fmt.Printf("trajectory: 1 line appended to %s\n", bf.trajectory)
	}
	return nil
}

// explainTitle names an oohbench run in its explain report.
func explainTitle(exp string) string {
	if exp == "" {
		return "oohbench"
	}
	return "oohbench " + exp
}

// writeCapture bundles the run's observability planes into the -capture
// directory: the ooh-bench/v1 report (with perf), the folded call-path
// profile, an ooh-explain/v1 report built from whatever planes the run
// had, and this run's ooh-trajectory/v1 lines. The bundle is exactly what
// obsdiff.LoadCapture reads, so two bundles diff without any glue.
func writeCapture(bf benchFlags, opt experiments.Options, results []*experiments.Result,
	perf []experiments.BenchPerf, reg *metrics.Registry, mon *monitor.Monitor, profiler *prof.Profiler) error {
	rep := experiments.NewBenchReport(opt, results, reg)
	rep.Perf = perf
	explainJSON, err := cliflags.ExplainJSON(explainTitle(bf.exp), mon, reg, profiler)
	if err != nil {
		return fmt.Errorf("capture: building explain report: %w", err)
	}
	var traj bytes.Buffer
	if len(perf) > 0 {
		if err := experiments.AppendTrajectory(&traj, bf.commit, perf); err != nil {
			return fmt.Errorf("capture: %w", err)
		}
	}
	cap := experiments.Capture{
		Report:     rep,
		Profile:    profiler,
		Explain:    explainJSON,
		Trajectory: traj.Bytes(),
	}
	if err := cap.WriteDir(bf.captureDir); err != nil {
		return err
	}
	return nil
}
