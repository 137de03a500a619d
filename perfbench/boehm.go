package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/boehmgc"
	"repro/internal/costmodel"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracking"
	"repro/internal/workloads"
)

var boehmObserved = &workload{
	name:  "boehm-observed",
	cells: len(boehmApps)*len(boehmSizes)*len(boehmKinds) + 1,
	setup: setupBoehm,
}

// The Fig. 5/6 default grid. untracked runs full stop-the-world traces;
// the PML techniques reuse the reverse index as in the paper (footnote 2).
var (
	boehmApps  = []string{"gcbench", "histogram", "string-match"}
	boehmSizes = []workloads.Size{workloads.Small, workloads.Medium}
	boehmKinds = []costmodel.Technique{costmodel.Oracle, costmodel.Proc, costmodel.SPML, costmodel.EPML}
)

// boehmPasses is the number of workload passes, each followed by a cycle.
const boehmPasses = 4

// boehmRule is the monitor plane's one alert rule.
const boehmRule = "monitor/dirty_rate_pps{vm0/pml} > 50000 for 2ms"

// boehmOutput is one cell's simulated output.
type boehmOutput struct {
	Cycles    []boehmgc.CycleStats `json:"cycles"`
	Live      int                  `json:"live_objects"`
	AppTimeNS int64                `json:"app_time_ns"`
	GCTimeNS  int64                `json:"gc_time_ns"`
}

// exportOutput is the planes' exported state at the end of a pass.
type exportOutput struct {
	TraceRecords  uint64 `json:"trace_records"`
	TraceSHA256   string `json:"trace_sha256"`
	MetricsSHA256 string `json:"metrics_sha256"`
	FoldedSHA256  string `json:"folded_sha256"`
	PprofSHA256   string `json:"pprof_sha256"`
	MonitorSHA256 string `json:"monitor_sha256"`
}

// planes are the four observability planes attached to every cell.
type planes struct {
	sink *trace.Memory
	tr   *trace.Tracer
	reg  *metrics.Registry
	prof *prof.Profiler
	mon  *monitor.Monitor
}

func boehmKindName(k costmodel.Technique) string {
	if k == costmodel.Oracle {
		return "untracked"
	}
	return techName(k)
}

func setupBoehm(seed uint64, rec *recorder) (func() ([]cellResult, int64), error) {
	rules, err := monitor.ParseRules(boehmRule)
	if err != nil {
		return nil, err
	}
	p := &planes{sink: &trace.Memory{}, reg: metrics.NewRegistry(), prof: prof.New(),
		mon: monitor.New(monitor.Config{Rules: rules})}
	p.tr = trace.New(p.sink, 0)
	p.reg.NewSampler(0)

	timed := func() ([]cellResult, int64) {
		var cells []cellResult
		var runOps int64
		for _, app := range boehmApps {
			for _, size := range boehmSizes {
				live := -1
				for _, kind := range boehmKinds {
					c := cellResult{ID: fmt.Sprintf("%s/%s/%s", app, size, boehmKindName(kind))}
					rec.setCell(c.ID)
					out, ops, err := boehmCell(&c, p, app, size, kind, seed, rec)
					runOps += ops
					c.fail(err)
					if err == nil {
						// Every technique must leave the same heap behind.
						if live >= 0 && out.Live != live {
							c.fail(fmt.Errorf("%d live objects, untracked run has %d", out.Live, live))
						}
						live = out.Live
						c.setOutput(out)
					}
					cells = append(cells, c)
				}
			}
		}
		rec.setCell("export")
		c := cellResult{ID: "export"}
		out, err := exportPlanes(p, rec)
		c.fail(err)
		c.setOutput(out)
		c.Counts = map[string]int64{"trace.records": int64(out.TraceRecords), "trace.dropped": int64(p.tr.Dropped())}
		return append(cells, c), runOps
	}
	return timed, nil
}

// boehmCell boots a machine with the planes attached and runs one app
// under the collector with one technique, as Fig. 5/6 do.
func boehmCell(c *cellResult, p *planes, app string, size workloads.Size, kind costmodel.Technique,
	seed uint64, rec *recorder) (boehmOutput, int64, error) {
	var out boehmOutput
	var m *machine.Machine
	if err := rec.do("machine.boot", func() (err error) {
		m, err = machine.New(machine.Config{Tracer: p.tr, Metrics: p.reg, Profiler: p.prof, Monitor: p.mon})
		return err
	}); err != nil {
		return out, 0, err
	}
	g := m.Guest(0)
	before := g.Kernel.VCPU.Counters.Snapshot()
	proc := g.Kernel.Spawn(app)

	heapBytes := uint64(48 << 20)
	var w workloads.Workload
	if app != "gcbench" {
		var err error
		if w, err = workloads.New(app, size, 1); err != nil {
			return out, 0, err
		}
		// A heap of three times the working set, clamped, as Boehm would
		// grow it.
		heapBytes = min(max(w.WorkingSet()*3, 8<<20), 512<<20)
	}
	var gc *boehmgc.GC
	if err := rec.do("boehmgc.new", func() (err error) {
		gc, err = boehmgc.New(proc, heapBytes, nil)
		return err
	}); err != nil {
		return out, 0, err
	}
	var tech tracking.Technique
	if kind != costmodel.Oracle {
		t, err := g.NewTechnique(kind, proc)
		if err != nil {
			return out, 0, err
		}
		if pml, ok := t.(*tracking.PMLTechnique); ok {
			pml.ReuseReverseIndex = true
		}
		tech = newTimedTechnique(t, rec)
		gc.Tech = tech
		if err := rec.do("boehmgc.start_incremental", gc.StartIncremental); err != nil {
			return out, 0, err
		}
	}

	var bench *workloads.GCBench
	var run func() error
	if app == "gcbench" {
		bench = workloads.GCBenchConfig(size, 1)
		run = bench.Run
	} else {
		run = w.Run
	}
	start := g.Kernel.Clock.Nanos()
	if err := rec.do("workloads.setup", func() error {
		if bench != nil {
			return bench.SetupGC(gc, sim.NewRNG(seed))
		}
		return w.Setup(&workloads.GCAlloc{GC: gc}, sim.NewRNG(seed))
	}); err != nil {
		return out, 0, err
	}
	collect := "boehmgc." + boehmKindName(kind) + ".collect"
	var runOps int64
	for i := 0; i < boehmPasses; i++ {
		ops, err := runWorkload(g, run, rec)
		runOps += ops
		if err != nil {
			return out, runOps, err
		}
		if err := rec.do(collect, func() error {
			_, err := gc.Collect()
			return err
		}); err != nil {
			return out, runOps, err
		}
	}
	out.AppTimeNS = g.Kernel.Clock.Nanos() - start
	out.Cycles = gc.Cycles()
	out.Live = gc.LiveObjects()
	out.GCTimeNS = int64(gc.TotalGCTime())
	c.Counts = simCounts(before, g.Kernel.VCPU.Counters.Snapshot())
	if tech != nil {
		c.Counts["tracking."+techName(kind)+".pages"] = tech.Stats().Reported
	}
	if bench != nil {
		if err := bench.CheckTree(); err != nil {
			return out, runOps, fmt.Errorf("gcbench invariant: %w", err)
		}
	}
	return out, runOps, nil
}

// exportPlanes closes the trace and exports every plane, as the CLIs do
// at the end of a run, and digests each export.
func exportPlanes(p *planes, rec *recorder) (exportOutput, error) {
	var out exportOutput
	if err := rec.do("trace.close", p.tr.Close); err != nil {
		return out, err
	}
	out.TraceRecords = p.tr.Emitted()
	recs, err := json.Marshal(p.sink.Records())
	if err != nil {
		return out, err
	}
	out.TraceSHA256 = digest(recs)
	var buf bytes.Buffer
	if err := rec.do("metrics.snapshot", func() error {
		buf.Reset()
		return p.reg.Snapshot().WriteJSONL(&buf)
	}); err != nil {
		return out, err
	}
	out.MetricsSHA256 = digest(buf.Bytes())
	var pprof bytes.Buffer
	if err := rec.do("prof.export", func() error {
		buf.Reset()
		if err := p.prof.WriteFolded(&buf); err != nil {
			return err
		}
		return p.prof.WritePprof(&pprof)
	}); err != nil {
		return out, err
	}
	out.FoldedSHA256, out.PprofSHA256 = digest(buf.Bytes()), digest(pprof.Bytes())
	if err := rec.do("monitor.snapshot", func() error {
		buf.Reset()
		return p.mon.Snapshot().WriteJSON(&buf)
	}); err != nil {
		return out, err
	}
	out.MonitorSHA256 = digest(buf.Bytes())
	return out, nil
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
