package experiments

import (
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/prof"
	"repro/internal/trace"
)

// sweep runs an n-cell experiment grid on opt.Workers goroutines and
// returns the cells' results in grid order. Each cell gets its own
// observation planes - a tracer shard, a metrics registry, a profiler and
// a forked monitor, each present only when opt carries that plane - and
// after the par.ForEach barrier the planes fold into opt's, one plane at a
// time in grid order (the monitor's merge sets gauges the registry merge
// adds to, so the planes must not interleave). The fold runs on error
// too, so a failed sweep still surfaces what the completed cells observed.
//
// Sharding is per cell, not per worker slot, on purpose: par.ForEach hands
// out indices dynamically, so which cells share a worker is a scheduling
// accident. A per-cell shard's contents depend only on the cell's seeded
// simulation, and the fold walks cells in grid order, so the merged
// stream and snapshot are byte-identical at any worker count - Workers=8
// observes exactly what Workers=1 does. Cell i's index is part of what it
// observes (the monitor stamps it into alerts, trace.Merge breaks
// timestamp ties by it), so an unobserved sweep - opt.unobserved() - is
// the place for runs no plane may see, such as ideal baselines.
func sweep[T any](opt Options, n int, cell func(i int, p machine.Config) (T, error)) ([]T, error) {
	dst := machine.Config{Tracer: opt.Tracer, Metrics: opt.Metrics, Profiler: opt.Profiler, Monitor: opt.Monitor}
	planes := make([]machine.Config, n)
	var shards []*trace.Shard
	if dst.Tracer != nil {
		shards = make([]*trace.Shard, n)
	}
	for i := range planes {
		c := &planes[i]
		if shards != nil {
			shards[i] = trace.NewShard(i, dst.Tracer.Mask())
			c.Tracer = shards[i].Tracer
		}
		if dst.Metrics != nil {
			c.Metrics = metrics.NewRegistry()
			if s := dst.Metrics.Sampler(); s != nil {
				c.Metrics.NewSampler(s.Interval())
			}
		}
		if dst.Profiler != nil {
			c.Profiler = prof.New()
		}
		c.Monitor = dst.Monitor.Fork(i)
	}

	out := make([]T, n)
	err := par.ForEach(n, opt.Workers, func(i int) error {
		var err error
		out[i], err = cell(i, planes[i])
		return err
	})

	trace.Merge(dst.Tracer, shards...)
	for _, c := range planes {
		dst.Metrics.Merge(c.Metrics)
	}
	for _, c := range planes {
		dst.Profiler.Merge(c.Profiler)
	}
	for _, c := range planes {
		dst.Monitor.Merge(c.Monitor)
	}
	return out, err
}

// unobserved keeps o's workload and fan-out settings but drops every
// observation plane: a sweep over it attaches nothing to its machines.
func (o Options) unobserved() Options {
	o.Tracer, o.Metrics, o.Profiler, o.Monitor = nil, nil, nil, nil
	return o
}

// rows cuts a grid into its table rows: consecutive runs of width cells,
// width being the size of the grid's innermost axis.
func rows[T any](grid []T, width int) [][]T {
	out := make([][]T, 0, len(grid)/width)
	for i := 0; i < len(grid); i += width {
		out = append(out, grid[i:i+width])
	}
	return out
}
