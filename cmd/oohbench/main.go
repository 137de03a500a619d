// Command oohbench regenerates the paper's evaluation: every table and
// figure of §VI, printed as ASCII tables with the paper's reference values
// noted underneath.
//
// Usage:
//
//	oohbench                 # run everything at the default scale
//	oohbench -exp fig4       # one experiment
//	oohbench -exp table1 -full -scale 4
//	oohbench -list           # list experiment ids
package main

import (
	"errors"
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cliflags"
	"repro/internal/experiments"
)

// benchFlags carries every parsed CLI flag into run.
type benchFlags struct {
	exp        string
	scale      int
	full       bool
	workers    int
	list       bool
	seed       uint64
	jsonPath   string
	checkJSON  string
	checkBench string
	backend    string
	coldBoot   bool
	captureDir string
	obs        cliflags.ObsFlags
}

func main() {
	var bf benchFlags
	flag.StringVar(&bf.exp, "exp", "", "experiment id (empty = all)")
	flag.IntVar(&bf.scale, "scale", 1, "workload scale factor")
	flag.BoolVar(&bf.full, "full", false, "include the most expensive points (500MB/1GB, all apps, 5 VMs)")
	flag.IntVar(&bf.workers, "workers", 0, "parallel experiment workers (0 = GOMAXPROCS)")
	flag.BoolVar(&bf.list, "list", false, "list experiment ids and exit")
	flag.Uint64Var(&bf.seed, "seed", experiments.DefaultSeed, "workload data seed")
	flag.StringVar(&bf.jsonPath, "json", "", "write a machine-readable ooh-bench/v1 report to this .json file (\"-\" = stdout, suppresses tables)")
	flag.StringVar(&bf.checkJSON, "check-json", "", "validate an ooh-bench/v1 report file against the schema and exit")
	flag.StringVar(&bf.checkBench, "check-bench", "", "comma-separated baseline BENCH_*.json files: regenerate each and fail if its tables or pages_tracked counts diverge")
	flag.StringVar(&bf.backend, "backend", "", cliflags.BackendUsage())
	flag.BoolVar(&bf.coldBoot, "coldboot", false, "disable the snapshot-fork fast path and re-run every boot+warm-up prefix (output is byte-identical either way; CI compares the two)")
	flag.StringVar(&bf.captureDir, "capture", "", "write the run's full observability bundle (bench.json, profile.folded, explain.json) into this directory for oohdiff")
	bf.obs.FaultRow = true
	bf.obs.Register()
	bf.obs.RegisterProf()
	flag.Parse()

	// main never exits from inside the work: run returns, so every deferred
	// cleanup (trace close in particular) fires even on the error paths.
	if err := run(bf); err != nil {
		fmt.Fprintf(os.Stderr, "oohbench: %v\n", err)
		os.Exit(1)
	}
}

func run(bf benchFlags) (err error) {
	// Validate every parameterized flag up front: a typo must exit non-zero
	// even when the flag would not be consumed this run.
	//
	// Experiment drivers boot machines with the default backend, so the
	// -backend flag routes through the OOH_BACKEND environment variable
	// the default resolution consults.
	if _, berr := cliflags.ParseBackend(bf.backend); berr != nil {
		return berr
	} else if bf.backend != "" {
		os.Setenv("OOH_BACKEND", bf.backend)
	}
	if err := parseJSONPath(bf.jsonPath); err != nil {
		return err
	}
	// -capture bundles every observability plane, so it implies the
	// metrics registry and the profiler even when no other flag asked.
	bf.obs.Capture = bf.captureDir != ""
	obs, err := bf.obs.Build(bf.seed)
	if err != nil {
		return err
	}
	// Report closes the trace; this covers the paths that never reach it.
	defer func() { err = errors.Join(err, obs.Close()) }()

	if bf.checkBench != "" {
		return checkBench(bf.checkBench, bf.workers)
	}

	if bf.checkJSON != "" {
		data, err := os.ReadFile(bf.checkJSON)
		if err != nil {
			return err
		}
		if err := experiments.ValidateBenchReport(data); err != nil {
			return fmt.Errorf("%s: %w", bf.checkJSON, err)
		}
		fmt.Printf("%s: valid %s report\n", bf.checkJSON, experiments.BenchSchema)
		return nil
	}

	if bf.list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return nil
	}

	opt := benchOptions(bf.scale, bf.full, bf.workers, bf.seed, bf.obs.FaultSpec)
	opt.ColdBoot = bf.coldBoot
	opt.Tracer, opt.Metrics, opt.Profiler, opt.Monitor = obs.Tracer, obs.Metrics, obs.Profiler, obs.Monitor

	ids := experiments.IDs()
	if bf.exp != "" {
		ids = []string{bf.exp}
	}
	quiet := bf.jsonPath == "-" // keep stdout parseable
	var results []*experiments.Result
	var perf []experiments.BenchPerf
	for _, id := range ids {
		start := time.Now()
		res, p, err := runExperiment(id, opt)
		if err != nil {
			return err
		}
		results = append(results, res)
		perf = append(perf, p)
		if !quiet {
			fmt.Printf("=== %s (%s, took %v) ===\n\n", res.ID, res.Title, time.Since(start).Round(time.Millisecond))
			fmt.Print(res.Render())
		}
	}

	// The observability block settles the trace and folds its loss count
	// into the metrics plane before the capture and the report read it.
	w := io.Writer(os.Stdout)
	if quiet {
		w = io.Discard
	}
	obs.ExplainTitle = explainTitle(bf.exp)
	if err := obs.Report(w); err != nil {
		return err
	}
	rep := experiments.NewBenchReport(opt, results, obs.Metrics)
	rep.Perf = perf
	if bf.captureDir != "" {
		if err := writeCapture(bf.captureDir, obs.ExplainTitle, rep, obs); err != nil {
			return err
		}
		if !quiet {
			fmt.Printf("\ncapture: bundle written to %s\n", bf.captureDir)
		}
	}
	if bf.jsonPath != "" {
		out := os.Stdout
		if !quiet {
			f, ferr := os.Create(bf.jsonPath)
			if ferr != nil {
				return ferr
			}
			defer f.Close()
			out = f
		}
		if err := rep.WriteJSON(out); err != nil {
			return fmt.Errorf("writing report: %w", err)
		}
		if !quiet {
			fmt.Printf("\nbench report (%s) written to %s\n", experiments.BenchSchema, bf.jsonPath)
		}
	}
	return nil
}

// countRepoLOC counts Go source lines per package directory when oohbench
// runs from a source checkout; it degrades to nil elsewhere.
func countRepoLOC() map[string]int {
	root := "."
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return nil
	}
	loc := make(map[string]int)
	fset := token.NewFileSet()
	_ = filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return nil
		}
		tf := fset.File(f.Pos())
		pkg := filepath.Dir(path)
		loc[pkg] += tf.LineCount()
		return nil
	})
	if len(loc) == 0 {
		return nil
	}
	return loc
}
