package obsdiff

import (
	"fmt"
	"io"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/prof"
)

// Schema identifies the diff report's JSON layout.
const Schema = "ooh-diff/v1"

// attributionTargetPermille is how much of the total inclusive-ns swing
// the top-paths section must cover: the smallest ranked prefix whose
// exclusive deltas sum to >=90% of the total is reported as "the cause".
const attributionTargetPermille = 900

// PathDelta is one call path's old-vs-new comparison, JSON form.
type PathDelta struct {
	Path        string `json:"path"` // "sub/op;sub/op"
	OldInclNs   int64  `json:"old_incl_ns"`
	NewInclNs   int64  `json:"new_incl_ns"`
	OldExclNs   int64  `json:"old_excl_ns"`
	NewExclNs   int64  `json:"new_excl_ns"`
	OldCount    int64  `json:"old_count"`
	NewCount    int64  `json:"new_count"`
	InclDeltaNs int64  `json:"incl_delta_ns"`
	ExclDeltaNs int64  `json:"excl_delta_ns"`
}

// RoundDelta compares one pre-copy round across the runs: timing from the
// profiler's critical path, dirty-set size from the monitor when the
// capture carried an explain report (-1 = unobserved). A round present in
// only one run has the other side zeroed with Dirty -1.
type RoundDelta struct {
	Sub           string `json:"sub"`
	Round         int    `json:"round"`
	OldTotalNs    int64  `json:"old_total_ns"`
	NewTotalNs    int64  `json:"new_total_ns"`
	DeltaNs       int64  `json:"delta_ns"`
	OldDominant   string `json:"old_dominant,omitempty"`
	NewDominant   string `json:"new_dominant,omitempty"`
	OldDirty      int    `json:"old_dirty"`
	NewDirty      int    `json:"new_dirty"`
	DominantMoved bool   `json:"dominant_moved"` // critical path changed shape
}

// CellDelta is one diverging bench-table cell.
type CellDelta struct {
	Experiment string `json:"experiment"`
	Table      string `json:"table"` // caption
	Row        int    `json:"row"`
	Header     string `json:"header"`
	Old        string `json:"old"`
	New        string `json:"new"`
}

// PerfDelta compares one experiment's pages-tracked count, a
// deterministic count of simulated events.
type PerfDelta struct {
	ID              string `json:"id"`
	OldPagesTracked int64  `json:"old_pages_tracked"`
	NewPagesTracked int64  `json:"new_pages_tracked"`
}

// Report is the full ooh-diff/v1 delta report.
type Report struct {
	Schema string `json:"schema"`
	Old    string `json:"old"` // old capture's path
	New    string `json:"new"` // new capture's path

	// Verdict is the one-line answer: what moved, by how much, and which
	// call paths account for it.
	Verdict string `json:"verdict"`
	// Empty is true when no compared plane changed.
	Empty bool `json:"empty"`

	// TotalInclDeltaNs is the whole profile swing (new minus old total
	// inclusive ns); zero when either capture lacks a profile.
	TotalInclDeltaNs int64 `json:"total_incl_delta_ns"`
	// AttributedPermille is how much of |TotalInclDeltaNs| the TopPaths
	// prefix covers, in per-mille (>=900 by construction whenever the
	// ranked paths can reach it - they always can, since all exclusive
	// deltas sum to the total).
	AttributedPermille int64 `json:"attributed_permille"`
	// TopPaths is the smallest |excl-delta|-ranked prefix covering the
	// attribution target.
	TopPaths []PathDelta `json:"top_paths,omitempty"`
	// CallPaths is every path that exists in either profile, pre-order.
	CallPaths []PathDelta `json:"call_paths,omitempty"`

	// Counters/Gauges are ranked by |delta|, changed metrics only; the
	// histogram rows keep both sides' percentile summaries.
	Counters   []metrics.MetricDelta `json:"counters,omitempty"`
	Gauges     []metrics.MetricDelta `json:"gauges,omitempty"`
	Histograms []metrics.HistDelta   `json:"histograms,omitempty"`

	Rounds []RoundDelta `json:"rounds,omitempty"`
	Tables []CellDelta  `json:"tables,omitempty"`
	Perf   []PerfDelta  `json:"perf,omitempty"`

	// rawPaths keeps the frame-typed deltas for the folded/pprof exports.
	rawPaths []prof.PathDelta
}

// Diff compares two loaded captures plane by plane. Both must be non-nil;
// planes only one capture has are skipped (a report can only explain what
// both runs observed).
func Diff(old, new *Capture) *Report {
	r := &Report{Schema: Schema, Old: old.Title(), New: new.Title()}

	if old.Profile != nil && new.Profile != nil {
		r.rawPaths = prof.DiffTrees(old.Profile, new.Profile)
		r.TotalInclDeltaNs = prof.TotalInclDelta(r.rawPaths)
		for _, d := range r.rawPaths {
			r.CallPaths = append(r.CallPaths, pathDeltaJSON(d))
		}
		r.TopPaths, r.AttributedPermille = attribute(r.rawPaths, r.TotalInclDeltaNs)
	}

	var oldSnap, newSnap metrics.Snapshot
	if old.Bench != nil && old.Bench.Metrics != nil {
		oldSnap = *old.Bench.Metrics
	}
	if new.Bench != nil && new.Bench.Metrics != nil {
		newSnap = *new.Bench.Metrics
	}
	md := metrics.DiffSnapshots(oldSnap, newSnap)
	r.Counters = metrics.RankMetricDeltas(md.Counters)
	r.Gauges = metrics.RankMetricDeltas(md.Gauges)
	for _, h := range md.Histograms {
		if !h.Zero() {
			r.Histograms = append(r.Histograms, h)
		}
	}

	r.Rounds = diffRounds(old, new)
	if old.Bench != nil && new.Bench != nil {
		r.Tables = diffTables(old.Bench, new.Bench)
		r.Perf = diffPerf(old.Bench.Perf, new.Bench.Perf)
	}

	r.Empty = r.computeEmpty()
	r.Verdict = r.verdict()
	return r
}

func pathDeltaJSON(d prof.PathDelta) PathDelta {
	return PathDelta{
		Path:      d.String(),
		OldInclNs: d.OldIncl, NewInclNs: d.NewIncl,
		OldExclNs: d.OldExcl, NewExclNs: d.NewExcl,
		OldCount: d.OldCount, NewCount: d.NewCount,
		InclDeltaNs: d.InclDelta(), ExclDeltaNs: d.ExclDelta(),
	}
}

// attribute picks the smallest |excl-delta|-ranked prefix whose deltas
// sum to >= attributionTargetPermille of |total|, and reports the
// coverage the prefix actually reached. With total == 0 (identical
// profiles, or swings that cancel exactly) there is nothing to attribute.
func attribute(deltas []prof.PathDelta, total int64) ([]PathDelta, int64) {
	if total == 0 {
		return nil, 0
	}
	ranked := prof.RankByExclDelta(deltas)
	absTotal := total
	if absTotal < 0 {
		absTotal = -absTotal
	}
	var sum int64
	var top []PathDelta
	for _, d := range ranked {
		sum += d.ExclDelta()
		top = append(top, pathDeltaJSON(d))
		covered := sum
		if covered < 0 {
			covered = -covered
		}
		if covered*1000 >= int64(attributionTargetPermille)*absTotal {
			return top, covered * 1000 / absTotal
		}
	}
	covered := sum
	if covered < 0 {
		covered = -covered
	}
	return top, covered * 1000 / absTotal
}

// roundKey identifies a round across runs.
type roundKey struct {
	sub   string
	round int
}

// diffRounds joins the per-round attributions. The explain report is the
// richer source (it carries the monitor's dirty sizes); a capture without
// one falls back to the profile tree's critical path (prof.CriticalPath
// semantics), with dirty unobserved.
func diffRounds(old, new *Capture) []RoundDelta {
	type side struct {
		total    int64
		dominant string
		dirty    int
	}
	collect := func(c *Capture) (map[roundKey]side, []roundKey) {
		out := map[roundKey]side{}
		var order []roundKey
		switch {
		case c.Explain != nil:
			for _, rd := range c.Explain.Rounds {
				k := roundKey{rd.Sub, rd.Round}
				out[k] = side{total: rd.TotalNs, dominant: rd.Dominant, dirty: rd.Dirty}
				order = append(order, k)
			}
		case c.Profile != nil:
			for _, rp := range c.Profile.CriticalPath() {
				k := roundKey{rp.Sub, rp.Round}
				out[k] = side{total: rp.Total, dominant: rp.Dominant(), dirty: -1}
				order = append(order, k)
			}
		}
		return out, order
	}
	oldSides, oldOrder := collect(old)
	newSides, newOrder := collect(new)

	// Union in old order, then new-only rounds in new order. Both sources
	// emit rounds sorted by (sub, round), so the union is deterministic.
	var keys []roundKey
	for _, k := range oldOrder {
		keys = append(keys, k)
	}
	for _, k := range newOrder {
		if _, ok := oldSides[k]; !ok {
			keys = append(keys, k)
		}
	}
	var out []RoundDelta
	for _, k := range keys {
		os, oldOK := oldSides[k]
		ns, newOK := newSides[k]
		if !oldOK {
			os = side{dirty: -1}
		}
		if !newOK {
			ns = side{dirty: -1}
		}
		out = append(out, RoundDelta{
			Sub: k.sub, Round: k.round,
			OldTotalNs: os.total, NewTotalNs: ns.total, DeltaNs: ns.total - os.total,
			OldDominant: os.dominant, NewDominant: ns.dominant,
			OldDirty: os.dirty, NewDirty: ns.dirty,
			DominantMoved: oldOK && newOK && os.dominant != ns.dominant,
		})
	}
	return out
}

// diffTables reports every diverging cell between the two reports'
// result tables, matching experiments by id and tables by index.
// Structural divergence (missing experiment/table, reshaped rows) is
// reported as a single synthetic cell so it cannot pass silently.
func diffTables(old, new *experiments.BenchReport) []CellDelta {
	newByID := map[string]*experiments.BenchExperiment{}
	for i := range new.Experiments {
		newByID[new.Experiments[i].ID] = &new.Experiments[i]
	}
	var out []CellDelta
	structural := func(exp, table, oldV, newV string) {
		out = append(out, CellDelta{Experiment: exp, Table: table, Row: -1, Header: "(structure)", Old: oldV, New: newV})
	}
	for _, oe := range old.Experiments {
		ne, ok := newByID[oe.ID]
		if !ok {
			structural(oe.ID, "", "present", "missing")
			continue
		}
		if len(oe.Tables) != len(ne.Tables) {
			structural(oe.ID, "", fmt.Sprintf("%d tables", len(oe.Tables)), fmt.Sprintf("%d tables", len(ne.Tables)))
			continue
		}
		for ti := range oe.Tables {
			ot, nt := oe.Tables[ti], ne.Tables[ti]
			if len(ot.Rows) != len(nt.Rows) || len(ot.Headers) != len(nt.Headers) {
				structural(oe.ID, ot.Caption,
					fmt.Sprintf("%dx%d", len(ot.Rows), len(ot.Headers)),
					fmt.Sprintf("%dx%d", len(nt.Rows), len(nt.Headers)))
				continue
			}
			for ri := range ot.Rows {
				for ci := range ot.Rows[ri] {
					if ci >= len(nt.Rows[ri]) || ot.Rows[ri][ci] != nt.Rows[ri][ci] {
						nv := ""
						if ci < len(nt.Rows[ri]) {
							nv = nt.Rows[ri][ci]
						}
						out = append(out, CellDelta{
							Experiment: oe.ID, Table: ot.Caption, Row: ri,
							Header: ot.Headers[ci], Old: ot.Rows[ri][ci], New: nv,
						})
					}
				}
			}
		}
	}
	for _, ne := range new.Experiments {
		found := false
		for _, oe := range old.Experiments {
			if oe.ID == ne.ID {
				found = true
				break
			}
		}
		if !found {
			structural(ne.ID, "", "missing", "present")
		}
	}
	return out
}

func diffPerf(old, new []experiments.BenchPerf) []PerfDelta {
	newByID := map[string]experiments.BenchPerf{}
	for _, p := range new {
		newByID[p.ID] = p
	}
	var out []PerfDelta
	for _, op := range old {
		np, ok := newByID[op.ID]
		if !ok {
			continue // only compare what both counted
		}
		out = append(out, PerfDelta{ID: op.ID, OldPagesTracked: op.PagesTracked, NewPagesTracked: np.PagesTracked})
	}
	return out
}

// computeEmpty: nothing moved on any plane.
func (r *Report) computeEmpty() bool {
	if r.TotalInclDeltaNs != 0 || len(r.Counters) > 0 || len(r.Gauges) > 0 ||
		len(r.Histograms) > 0 || len(r.Tables) > 0 {
		return false
	}
	for _, d := range r.rawPaths {
		if !d.Zero() {
			return false
		}
	}
	for _, rd := range r.Rounds {
		if rd.DeltaNs != 0 || rd.DominantMoved || rd.OldDirty != rd.NewDirty {
			return false
		}
	}
	for _, p := range r.Perf {
		if p.OldPagesTracked != p.NewPagesTracked {
			return false
		}
	}
	return true
}

// verdict builds the one-line summary: total swing, attribution coverage,
// the top path, and the loudest counter.
func (r *Report) verdict() string {
	if r.Empty {
		return "no differences: the runs' observed planes are identical"
	}
	var lead string
	switch {
	case r.TotalInclDeltaNs != 0:
		lead = fmt.Sprintf("total inclusive time %s", signedNs(r.TotalInclDeltaNs))
		if len(r.TopPaths) > 0 {
			lead += fmt.Sprintf(": %d.%d%% attributed to %d path(s), led by %s (%s excl)",
				r.AttributedPermille/10, r.AttributedPermille%10,
				len(r.TopPaths), r.TopPaths[0].Path, signedNs(r.TopPaths[0].ExclDeltaNs))
		}
	case len(r.Tables) > 0:
		lead = fmt.Sprintf("%d bench table cell(s) diverge, first in %s", len(r.Tables), r.Tables[0].Experiment)
	case len(r.Counters) > 0:
		lead = fmt.Sprintf("%d counter(s) moved, led by %s (%+d)",
			len(r.Counters), r.Counters[0].Key(), r.Counters[0].Delta())
	default:
		lead = "observed planes differ"
	}
	if r.TotalInclDeltaNs != 0 && len(r.Counters) > 0 {
		lead += fmt.Sprintf("; top counter %s %+d", r.Counters[0].Key(), r.Counters[0].Delta())
	}
	return lead
}

func signedNs(ns int64) string { return fmt.Sprintf("%+dns", ns) }

// WriteFolded writes the diff-flamegraph export ("path old new delta"
// exclusive-ns lines). Requires both captures to have had profiles;
// otherwise writes nothing.
func (r *Report) WriteFolded(w io.Writer) error {
	return prof.WriteFoldedDiff(w, r.rawPaths)
}

// WritePprof writes the pprof-compatible diff profile (negative sample
// values for improvements). Requires both captures to have had profiles;
// otherwise the profile carries no samples.
func (r *Report) WritePprof(w io.Writer) error {
	return prof.WritePprofDiff(w, r.rawPaths)
}
