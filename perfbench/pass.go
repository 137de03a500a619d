package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/tracking"
)

// A pass is one full run of a workload in a fresh child process, so no
// state (the experiments' warm-snapshot pool, the process-wide
// pages-reported counter, the Go heap) survives from an earlier pass.

// cellResult is one grid cell of a pass: its simulated output and the
// simulated event counts it produced, both of which must repeat exactly.
type cellResult struct {
	ID     string           `json:"id"`
	Err    string           `json:"err,omitempty"`
	Output json.RawMessage  `json:"output,omitempty"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// passResult is what a child process reports back for one pass.
type passResult struct {
	Traced       bool                  `json:"traced"`
	SetupNS      int64                 `json:"setup_ns"` // process spawn to the start of the timed section
	WallNS       int64                 `json:"wall_ns"`  // the timed section
	Pages        int64                 `json:"pages"`    // tracking.PagesReported over the timed section
	PagesAtStart int64                 `json:"pages_at_start"`
	RunOps       int64                 `json:"run_ops"` // simulated memory ops inside workloads.run calls
	AllocBytes   uint64                `json:"alloc_bytes"`
	GCCycles     uint32                `json:"gc_cycles"`
	GCPauseNS    uint64                `json:"gc_pause_ns"`
	Cells        []cellResult          `json:"cells"`
	Layers       map[string]*layerStat `json:"layers,omitempty"`
	PeakRSSKB    int64                 `json:"-"` // filled in by the parent from rusage
}

// workload is one benchmark workload as run inside a child process.
type workload struct {
	name string
	// cells is the number of grid cells one pass attempts.
	cells int
	// setup builds what the timed section reuses and returns the timed
	// section itself.
	setup func(seed uint64, rec *recorder) (func() ([]cellResult, int64), error)
}

var workloadList = []*workload{paperEval, microTrack, boehmObserved}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloadList {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// runPass runs one pass of w in this process. spawnNS is the wall-clock
// time at which the parent started the process, so set-up time includes
// process start. setupOnly stops after set-up.
func runPass(w *workload, seed uint64, traced, setupOnly bool, spawnNS int64) (*passResult, *recorder, error) {
	res := &passResult{Traced: traced, PagesAtStart: tracking.PagesReported()}
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	timed, err := w.setup(seed, rec)
	if err != nil {
		return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	res.SetupNS = time.Now().UnixNano() - spawnNS
	if setupOnly {
		return res, rec, nil
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	pages0 := tracking.PagesReported()
	t0 := time.Now()
	cells, runOps := timed()
	res.WallNS = time.Since(t0).Nanoseconds()
	runtime.ReadMemStats(&m1)
	res.Pages = tracking.PagesReported() - pages0
	res.RunOps = runOps
	res.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.GCCycles = m1.NumGC - m0.NumGC
	res.GCPauseNS = m1.PauseTotalNs - m0.PauseTotalNs
	res.Cells = cells
	if rec != nil {
		res.Layers = rec.stats()
	}
	return res, rec, nil
}

// fail records err on c, keeping the first error.
func (c *cellResult) fail(err error) {
	if err != nil && c.Err == "" {
		c.Err = err.Error()
	}
}

// setOutput stores v as the cell's canonical simulated output.
func (c *cellResult) setOutput(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		c.fail(fmt.Errorf("encoding output: %w", err))
		return
	}
	c.Output = b
}
