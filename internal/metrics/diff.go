package metrics

import "sort"

// Cross-run snapshot diffing for the obsdiff engine. Snapshots are keyed
// by (subsystem, name, label) - the same identity WriteJSONL and
// WritePrometheus export - so two runs align exactly; a metric present in
// only one run diffs against zero. Sampled time-series are an in-memory
// visualization aid and are not diffed.

// MetricDelta compares one counter or gauge across two snapshots.
type MetricDelta struct {
	Subsystem string `json:"subsystem"`
	Name      string `json:"name"`
	Label     string `json:"label,omitempty"`
	Old       int64  `json:"old"`
	New       int64  `json:"new"`
}

// Delta is new minus old.
func (d MetricDelta) Delta() int64 { return d.New - d.Old }

// Key renders the metric identity ("subsystem/name{label}").
func (d MetricDelta) Key() string { return metricKey(d.Subsystem, d.Name, d.Label) }

// HistDelta compares one histogram across two snapshots; either side is
// the zero HistSnap when the histogram only exists in the other run.
type HistDelta struct {
	Subsystem string   `json:"subsystem"`
	Name      string   `json:"name"`
	Label     string   `json:"label,omitempty"`
	Old       HistSnap `json:"old"`
	New       HistSnap `json:"new"`
}

// Key renders the histogram identity ("subsystem/name{label}").
func (d HistDelta) Key() string { return metricKey(d.Subsystem, d.Name, d.Label) }

// CountDelta is new minus old sample count.
func (d HistDelta) CountDelta() int64 { return d.New.Count - d.Old.Count }

// SumDelta is new minus old sample sum.
func (d HistDelta) SumDelta() int64 { return d.New.Sum - d.Old.Sum }

// P99Delta is new minus old p99 upper bound.
func (d HistDelta) P99Delta() int64 { return d.New.P99 - d.Old.P99 }

// Zero reports whether the two sides agree on every exported field.
func (d HistDelta) Zero() bool { return d.Old == d.New }

func metricKey(sub, name, label string) string {
	if label == "" {
		return sub + "/" + name
	}
	return sub + "/" + name + "{" + label + "}"
}

// SnapshotDiff is the full old-vs-new comparison of two snapshots, in
// deterministic key order. Rows where both sides agree are kept (with
// zero delta) so a report can show "unchanged" context; Empty checks
// whether anything actually moved.
type SnapshotDiff struct {
	Counters   []MetricDelta `json:"counters,omitempty"`
	Gauges     []MetricDelta `json:"gauges,omitempty"`
	Histograms []HistDelta   `json:"histograms,omitempty"`
}

// Empty reports whether no counter, gauge or histogram changed.
func (d SnapshotDiff) Empty() bool {
	for _, c := range d.Counters {
		if c.Delta() != 0 {
			return false
		}
	}
	for _, g := range d.Gauges {
		if g.Delta() != 0 {
			return false
		}
	}
	for _, h := range d.Histograms {
		if !h.Zero() {
			return false
		}
	}
	return true
}

// snapKey is the (subsystem, name, label) sort identity.
type snapKey struct{ sub, name, label string }

func (k snapKey) less(o snapKey) bool {
	if k.sub != o.sub {
		return k.sub < o.sub
	}
	if k.name != o.name {
		return k.name < o.name
	}
	return k.label < o.label
}

// DiffSnapshots aligns two snapshots by (subsystem, name, label) and
// returns every metric present in either, sorted by key. Deterministic:
// same inputs, same output.
func DiffSnapshots(old, new Snapshot) SnapshotDiff {
	var d SnapshotDiff

	d.Counters = diffScalars(
		counterPairs(old.Counters), counterPairs(new.Counters))
	d.Gauges = diffScalars(
		gaugePairs(old.Gauges), gaugePairs(new.Gauges))

	hists := map[snapKey]*HistDelta{}
	for _, h := range old.Histograms {
		k := snapKey{h.Subsystem, h.Name, h.Label}
		hists[k] = &HistDelta{Subsystem: h.Subsystem, Name: h.Name, Label: h.Label, Old: h}
	}
	for _, h := range new.Histograms {
		k := snapKey{h.Subsystem, h.Name, h.Label}
		if hd := hists[k]; hd != nil {
			hd.New = h
		} else {
			hists[k] = &HistDelta{Subsystem: h.Subsystem, Name: h.Name, Label: h.Label, New: h}
		}
	}
	keys := make([]snapKey, 0, len(hists))
	for k := range hists {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	for _, k := range keys {
		d.Histograms = append(d.Histograms, *hists[k])
	}
	return d
}

type scalarPair struct {
	key snapKey
	v   int64
}

func counterPairs(cs []CounterSnap) []scalarPair {
	out := make([]scalarPair, len(cs))
	for i, c := range cs {
		out[i] = scalarPair{snapKey{c.Subsystem, c.Name, c.Label}, c.Value}
	}
	return out
}

func gaugePairs(gs []GaugeSnap) []scalarPair {
	out := make([]scalarPair, len(gs))
	for i, g := range gs {
		out[i] = scalarPair{snapKey{g.Subsystem, g.Name, g.Label}, g.Value}
	}
	return out
}

// diffScalars merges two key-sorted scalar lists (Snapshot emits metrics
// in sorted key order) into deltas over the key union.
func diffScalars(old, new []scalarPair) []MetricDelta {
	var out []MetricDelta
	i, j := 0, 0
	for i < len(old) || j < len(new) {
		var d MetricDelta
		switch {
		case j >= len(new) || (i < len(old) && old[i].key.less(new[j].key)):
			k := old[i]
			d = MetricDelta{Subsystem: k.key.sub, Name: k.key.name, Label: k.key.label, Old: k.v}
			i++
		case i >= len(old) || (j < len(new) && new[j].key.less(old[i].key)):
			k := new[j]
			d = MetricDelta{Subsystem: k.key.sub, Name: k.key.name, Label: k.key.label, New: k.v}
			j++
		default:
			d = MetricDelta{
				Subsystem: old[i].key.sub, Name: old[i].key.name, Label: old[i].key.label,
				Old: old[i].v, New: new[j].v,
			}
			i, j = i+1, j+1
		}
		out = append(out, d)
	}
	return out
}

// RankMetricDeltas returns the deltas reordered by descending |delta|,
// ties broken by key order, zero-delta rows dropped - the "which counters
// account for the change" ranking.
func RankMetricDeltas(deltas []MetricDelta) []MetricDelta {
	ranked := make([]MetricDelta, 0, len(deltas))
	for _, d := range deltas {
		if d.Delta() != 0 {
			ranked = append(ranked, d)
		}
	}
	sort.SliceStable(ranked, func(i, j int) bool {
		di, dj := ranked[i].Delta(), ranked[j].Delta()
		if di < 0 {
			di = -di
		}
		if dj < 0 {
			dj = -dj
		}
		return di > dj
	})
	return ranked
}
