package main

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/costmodel"
	"repro/internal/machine"
)

// endToEnd computes the end-to-end metrics from the untraced passes: each
// is the median over the passes of the run, except peak_rss_mb, the peak
// over the run's processes.
func endToEnd(untraced []*passResult, setups []float64) map[string]float64 {
	vals := func(f func(p *passResult) float64) []float64 {
		out := make([]float64, len(untraced))
		for i, p := range untraced {
			out[i] = f(p)
		}
		return out
	}
	return map[string]float64{
		"wall_s":      median(vals(func(p *passResult) float64 { return float64(p.WallNS) / 1e9 })),
		"pages_per_s": median(vals(func(p *passResult) float64 { return float64(p.Pages) / (float64(p.WallNS) / 1e9) })),
		"setup_s":     median(setups),
		"peak_rss_mb": slices.Max(vals(func(p *passResult) float64 { return float64(p.PeakRSSKB) / 1024 })),
		"alloc_mb":    median(vals(func(p *passResult) float64 { return float64(p.AllocBytes) / (1 << 20) })),
	}
}

// perLayer computes the per-layer metrics of a traced run: the median over
// the traced passes of each metric, plus the tracing overhead against the
// untraced passes of the same run. A layer timing the workload does not
// produce, because it never calls the layer, is taken from the traced
// pass of another workload (home) that does; the layer's call count on
// the requested workload still reads 0.
func perLayer(untraced, traced, home []*passResult) map[string]float64 {
	per := make([]map[string]float64, len(traced))
	for i, p := range traced {
		per[i] = passLayers(p)
	}
	out := map[string]float64{}
	for name := range per[0] {
		vals := make([]float64, len(per))
		for i, m := range per {
			vals[i] = m[name]
		}
		out[name] = median(vals)
	}
	for _, h := range home {
		for name, v := range passLayers(h) {
			if _, ok := out[name]; !ok {
				out[name] = v
			}
		}
	}
	wall := func(ps []*passResult) float64 {
		vals := make([]float64, len(ps))
		for i, p := range ps {
			vals[i] = float64(p.WallNS) / 1e9
		}
		return median(vals)
	}
	out["bench.untraced_wall_s"] = wall(untraced)
	out["bench.traced_wall_s"] = wall(traced)
	out["bench.trace_overhead_ratio"] = out["bench.traced_wall_s"] / out["bench.untraced_wall_s"]
	return out
}

// passLayers turns one traced pass into per-layer metrics. Timings appear
// only for the layers the pass called; counts always.
func passLayers(p *passResult) map[string]float64 {
	m := map[string]float64{}
	stat := func(name string) *layerStat {
		if st := p.Layers[name]; st != nil {
			return st
		}
		return &layerStat{}
	}
	secs := func(metric, name string) {
		if st := stat(name); st.Calls > 0 {
			m[metric] = float64(st.SelfNS) / 1e9
		}
	}
	calls := func(name string) float64 { return float64(stat(name).Calls) }
	perCall := func(name string) float64 {
		if st := stat(name); st.Calls > 0 {
			return float64(st.Allocs) / float64(st.Calls)
		}
		return 0
	}
	tails := func(name string) {
		if p50, tail, _, ok := percentiles(stat(name).Durs); ok {
			m[name+".p50_s"], m[name+".ptail_s"] = float64(p50)/1e9, float64(tail)/1e9
		}
	}
	perUnit := func(metric, name string, units int64) {
		if st := stat(name); st.Calls > 0 && units > 0 {
			m[metric] = float64(st.SelfNS) / float64(units)
		}
	}
	counts := map[string]int64{}
	for _, c := range p.Cells {
		for k, v := range c.Counts {
			counts[k] += v
		}
	}

	for _, n := range []string{"machine.boot", "machine.capture", "machine.fork", "workloads.setup", "workloads.run",
		"boehmgc.new", "boehmgc.start_incremental", "trace.close", "metrics.snapshot", "prof.export", "monitor.snapshot"} {
		secs(n+".s", n)
	}
	m["machine.fork.calls"] = calls("machine.fork")
	m["machine.fork.allocs_per_call"] = perCall("machine.fork")
	tails("machine.fork")
	m["workloads.run.calls"] = calls("workloads.run")
	m["workloads.run.allocs_per_call"] = perCall("workloads.run")
	perUnit("workloads.run.ns_per_sim_op", "workloads.run", p.RunOps)
	tails("workloads.run")

	for _, k := range machine.AllTechniques() {
		t := "tracking." + techName(k)
		secs(t+".init.s", t+".init")
		secs(t+".collect.s", t+".collect")
		m[t+".collect.calls"] = calls(t + ".collect")
		secs(t+".close.s", t+".close")
		m[t+".pages"] = float64(counts[t+".pages"])
		perUnit(t+".collect.ns_per_page", t+".collect", counts[t+".pages"])
	}
	for _, k := range []costmodel.Technique{costmodel.Oracle, costmodel.Proc, costmodel.SPML, costmodel.EPML} {
		b := "boehmgc." + boehmKindName(k) + ".collect"
		secs(b+".s", b)
		m[b+".calls"] = calls(b)
		tails(b)
	}
	for _, id := range paperIDs {
		secs("experiments."+id+".s", "experiments."+id)
	}
	m["trace.records"] = float64(counts["trace.records"])
	m["trace.dropped"] = float64(counts["trace.dropped"])
	m["tracking.pages_reported"] = float64(p.Pages)
	m["runtime.gc_cycles"] = float64(p.GCCycles)
	m["runtime.gc_pause_s"] = float64(p.GCPauseNS) / 1e9
	for _, sc := range simCounters {
		m[sc.metric] = float64(counts[sc.metric])
	}
	return m
}

// printSummary prints what the JSON line leaves out: fail_ratio, the
// simulator speed in simulated memory ops per host second, the spread of
// the passes and the cold-state check.
func printSummary(untraced, traced []*passResult, setups []float64, v verdict) {
	fmt.Printf("correctness: %d of %d cells failed (fail_ratio %.4f), compared against %s\n",
		v.failed, v.attempted, float64(v.failed)/float64(v.attempted), v.reference)
	walls := make([]float64, len(untraced))
	var ops []float64
	for i, p := range untraced {
		walls[i] = float64(p.WallNS) / 1e9
		var n int64
		for _, c := range p.Cells {
			n += c.Counts["cpu.read_ops"] + c.Counts["cpu.write_ops"]
		}
		if n > 0 {
			ops = append(ops, float64(n)/walls[i])
		}
	}
	sort.Float64s(walls)
	fmt.Printf("untraced wall_s over %d passes: min %.4f median %.4f max %.4f; setup_s median of %d: %.4f\n",
		len(walls), walls[0], median(walls), walls[len(walls)-1], len(setups), median(setups))
	if len(ops) > 0 {
		fmt.Printf("sim_ops_per_s (simulated read and write ops per host second): %.0f\n", median(ops))
	}
	fmt.Printf("cold-state check: first pass / median of later passes = %.3f (limit %.1fx either way)\n", v.coldRatio, coldLimit)
	if len(traced) > 0 {
		var names []string
		for name := range traced[0].Layers {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			st := traced[0].Layers[name]
			if _, tail, level, ok := percentiles(st.Durs); ok {
				fmt.Printf("traced pass 1: %s %d calls, ptail is p%.0f = %.6fs\n", name, st.Calls, level*100, float64(tail)/1e9)
			}
		}
	}
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
