package experiments

import (
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/prof"
	"repro/internal/trace"
)

// probeShards fans the observation planes out over a parallel experiment
// grid: one machine.Config of planes per grid cell (its own tracer shard,
// metrics registry, profiler and forked monitor), handed to the cell's
// worker goroutine, then folded into the destination planes after the
// par.ForEach barrier.
//
// Sharding is per cell, not per worker slot, on purpose: par.ForEach hands
// out indices dynamically, so which cells share a worker is a scheduling
// accident. A per-cell shard's contents depend only on the cell's seeded
// simulation, and the merge walks cells in grid order, so the merged
// stream and snapshot are byte-identical at any worker count - Workers=8
// observes exactly what Workers=1 does.
type probeShards struct {
	dst    machine.Config
	cells  []machine.Config
	shards []*trace.Shard // cells[i].Tracer's shard, for trace.Merge
}

// newShards builds per-cell planes for an n-cell grid. Disabled planes
// stay disabled: a nil destination plane yields nil per-cell planes, so
// unobserved sweeps pay nothing.
func (o Options) newShards(n int) *probeShards {
	ps := &probeShards{
		dst:   machine.Config{Tracer: o.Tracer, Metrics: o.Metrics, Profiler: o.Profiler, Monitor: o.Monitor},
		cells: make([]machine.Config, n),
	}
	if ps.dst.Tracer != nil {
		ps.shards = make([]*trace.Shard, n)
	}
	for i := range ps.cells {
		c := &ps.cells[i]
		if ps.shards != nil {
			ps.shards[i] = trace.NewShard(i, ps.dst.Tracer.Mask())
			c.Tracer = ps.shards[i].Tracer
		}
		if ps.dst.Metrics != nil {
			c.Metrics = metrics.NewRegistry()
			if s := ps.dst.Metrics.Sampler(); s != nil {
				c.Metrics.NewSampler(s.Interval())
			}
		}
		if ps.dst.Profiler != nil {
			c.Profiler = prof.New()
		}
		c.Monitor = ps.dst.Monitor.Fork(i)
	}
	return ps
}

// cell returns grid cell i's planes.
func (ps *probeShards) cell(i int) machine.Config { return ps.cells[i] }

// merge folds every cell's observations into the destination planes, one
// plane at a time in grid order (the monitor's merge sets gauges the
// registry merge adds to, so the planes must not interleave). Call it after
// the fan-out barrier - including on error, so a failed sweep still
// surfaces what the completed cells observed. Every merge is nil-safe.
func (ps *probeShards) merge() {
	trace.Merge(ps.dst.Tracer, ps.shards...)
	for _, c := range ps.cells {
		ps.dst.Metrics.Merge(c.Metrics)
	}
	for _, c := range ps.cells {
		ps.dst.Profiler.Merge(c.Profiler)
	}
	for _, c := range ps.cells {
		ps.dst.Monitor.Merge(c.Monitor)
	}
}
