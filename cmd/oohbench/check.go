package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obsdiff"
)

// checkBench is the CI regression gate: for every committed baseline file
// it regenerates the same experiments at the baseline's recorded options,
// writes the fresh report next to the baseline as <name>.candidate.json,
// and compares the two: tables and pages-tracked counts must match
// exactly. Candidates are always written - on failure CI uploads them as
// artifacts.
func checkBench(spec string, workers int) error {
	var failures []string
	for _, path := range strings.Split(spec, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		if err := checkBenchOne(path, workers); err != nil {
			fmt.Fprintf(os.Stderr, "oohbench: %s: %v\n", path, err)
			failures = append(failures, path)
			continue
		}
		fmt.Printf("%s: tables and pages_tracked match\n", path)
	}
	if len(failures) > 0 {
		return fmt.Errorf("bench check failed for %s", strings.Join(failures, ", "))
	}
	return nil
}

func checkBenchOne(path string, workers int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := experiments.ValidateBenchReport(data); err != nil {
		return err
	}
	var base experiments.BenchReport
	if err := json.Unmarshal(data, &base); err != nil {
		return err
	}

	opt := benchOptions(base.Scale, base.Full, workers, base.Seed, "")
	var results []*experiments.Result
	var perf []experiments.BenchPerf
	for _, exp := range base.Experiments {
		res, p, err := runExperiment(exp.ID, opt)
		if err != nil {
			return err
		}
		results = append(results, res)
		perf = append(perf, p)
	}
	cand := experiments.NewBenchReport(opt, results, nil)
	cand.Perf = perf

	candPath := strings.TrimSuffix(path, ".json") + ".candidate.json"
	f, err := os.Create(candPath)
	if err != nil {
		return err
	}
	werr := cand.WriteJSON(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("writing candidate %s: %w", candPath, werr)
	}

	cmpErr := experiments.CompareBenchReports(&base, cand)
	if cmpErr == nil {
		return nil
	}
	// The gate failed: turn the bare mismatch error into an attribution
	// report. Both sides become in-memory captures (bench plane only - the
	// committed baselines carry tables and pages-tracked counts) and the diff
	// engine names every diverging cell and metric. CI uploads these next
	// to the candidate so the failure explains itself.
	artifacts, aerr := writeDiffArtifacts(path, candPath, &base, cand)
	if aerr != nil {
		return errors.Join(cmpErr, aerr)
	}
	return fmt.Errorf("%w\nattribution: %s", cmpErr, strings.Join(artifacts, ", "))
}

// writeDiffArtifacts writes <base>.diff.md and <base>.diff.json next to
// the baseline and returns the paths written.
func writeDiffArtifacts(basePath, candPath string, base, cand *experiments.BenchReport) ([]string, error) {
	rep := obsdiff.Diff(
		&obsdiff.Capture{Path: basePath, Bench: base},
		&obsdiff.Capture{Path: candPath, Bench: cand},
	)
	stem := strings.TrimSuffix(basePath, ".json")
	var written []string
	for _, out := range []struct {
		path  string
		write func(*os.File) error
	}{
		{stem + ".diff.md", func(f *os.File) error { return rep.WriteMarkdown(f) }},
		{stem + ".diff.json", func(f *os.File) error { return rep.WriteJSON(f) }},
	} {
		f, err := os.Create(out.path)
		if err != nil {
			return written, err
		}
		werr := out.write(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return written, fmt.Errorf("writing diff artifact %s: %w", out.path, werr)
		}
		written = append(written, out.path)
	}
	return written, nil
}
