package metrics

// Merge folds another registry's metrics into r: counters and gauges add,
// histograms add bucket-by-bucket, and sampler series merge by timestamp
// under the sampler's one-point-per-interval rule. Missing metrics are
// created on r, so merging into a fresh registry copies other.
//
// Parallel experiment grids use this after the fan-out barrier: each grid
// cell records into its own registry on its worker goroutine, then the
// driver merges the cells into the destination registry in grid order.
// Because every per-cell aggregate is a deterministic function of the
// cell's seed - never of worker scheduling - and the merge sequence is
// fixed, the merged registry's snapshot is byte-identical at any worker
// count. Nil receiver and nil other are no-ops.
func (r *Registry) Merge(other *Registry) {
	if r == nil || other == nil {
		return
	}
	for _, k := range other.CounterKeys() {
		r.Counter(k.Subsystem, k.Name, k.Label).Add(other.counters[k].Value())
	}
	for _, k := range other.GaugeKeys() {
		r.Gauge(k.Subsystem, k.Name, k.Label).Add(other.gauges[k].Value())
	}
	for _, k := range other.HistogramKeys() {
		r.Histogram(k.Subsystem, k.Name, k.Label).Merge(other.hists[k])
	}
	if os := other.sampler; os != nil && r.sampler != nil {
		r.sampler.merge(os)
	}
}

// Merge adds another histogram's distribution into h: buckets, count and
// sum add; max takes the larger; last takes other's when other is
// non-empty (the merge source is the more recent recording). Nil receiver
// and nil other are no-ops.
func (h *Histogram) Merge(other *Histogram) {
	if h == nil || other == nil {
		return
	}
	for i := range other.buckets {
		h.buckets[i] += other.buckets[i]
	}
	h.count += other.count
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
	if other.count > 0 {
		h.last = other.last
	}
}

// merge folds another sampler's series into s. Same-named series merge
// through MergePoints at s's interval. Series s does not have yet are
// created (without a valuer; Watch can rebind one).
func (s *Sampler) merge(other *Sampler) {
	for _, ose := range other.series {
		var dst *Series
		for _, se := range s.series {
			if se.Name == ose.Name {
				dst = se
				break
			}
		}
		if dst == nil {
			dst = &Series{Name: ose.Name}
			s.series = append(s.series, dst)
		}
		dst.Points = MergePoints(dst.Points, ose.Points, s.sched.interval)
	}
}

// MergePoints merge-sorts two timestamp-ordered point series into a new
// slice (a's point first on ties), then thins it to at most one point per
// interval of virtual ns: the first point anchors the schedule, and each
// kept point advances it past every interval boundary it covers, never in
// a catch-up burst. An interval of 0 keeps every point. Sampler and
// monitor series merge through it, so a sharded grid's merged series are
// byte-identical at any worker count. Neither input is modified.
func MergePoints(a, b []Point, interval int64) []Point {
	if len(a)+len(b) == 0 {
		return nil
	}
	out := make([]Point, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].TS <= b[j].TS {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	if interval <= 0 {
		return out
	}
	kept := out[:1]
	next := out[0].TS + interval
	for _, p := range out[1:] {
		if p.TS < next {
			continue
		}
		kept = append(kept, p)
		next += ((p.TS-next)/interval + 1) * interval
	}
	return kept
}
