package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/mem"
	"repro/internal/tracking"
)

// span is one timed call into a layer of the simulator, recorded from the
// benchmark's side of the call. Cell names the grid cell the call belongs
// to; Parent is the index of the enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Cell   string `json:"cell"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs int64  `json:"allocs,omitempty"`
}

// recorder keeps the spans of one traced pass in memory. A nil recorder
// is the untraced pass: do then only calls fn, so both passes drive the
// simulator through exactly the same calls.
type recorder struct {
	t0    time.Time
	cell  string
	spans []span
	stack []int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// allocSpans are the layers whose per-call heap allocations are reported;
// counting needs a stop-the-world ReadMemStats, so only these pay for it.
var allocSpans = map[string]bool{"machine.fork": true, "workloads.run": true}

// setCell names the grid cell that the following spans belong to.
func (r *recorder) setCell(id string) {
	if r != nil {
		r.cell = id
	}
}

// do runs fn inside a span called name.
func (r *recorder) do(name string, fn func() error) error {
	if r == nil {
		return fn()
	}
	idx := len(r.spans)
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Cell: r.cell, Parent: parent})
	r.stack = append(r.stack, idx)
	countAllocs := allocSpans[name]
	var m0 uint64
	if countAllocs {
		m0 = mallocs()
	}
	start := time.Since(r.t0).Nanoseconds()
	err := fn()
	end := time.Since(r.t0).Nanoseconds()
	if countAllocs {
		r.spans[idx].Allocs = int64(mallocs() - m0)
	}
	r.spans[idx].Start, r.spans[idx].End = start, end
	r.stack = r.stack[:len(r.stack)-1]
	return err
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// layerStat aggregates every span of one name.
type layerStat struct {
	SelfNS int64   `json:"self_ns"` // span time minus the time of its child spans
	Calls  int64   `json:"calls"`
	Allocs int64   `json:"allocs"`
	Durs   []int64 `json:"durs_ns"` // inclusive duration per call, sorted
}

// stats folds the spans into per-name totals.
func (r *recorder) stats() map[string]*layerStat {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerStat{}
	for i, s := range r.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		dur := s.End - s.Start
		st.SelfNS += dur - child[i]
		st.Calls++
		st.Allocs += s.Allocs
		st.Durs = append(st.Durs, dur)
	}
	for _, st := range out {
		sort.Slice(st.Durs, func(i, j int) bool { return st.Durs[i] < st.Durs[j] })
	}
	return out
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// tailLevels are the percentiles a timing may report, highest first.
var tailLevels = []float64{0.99, 0.95, 0.90, 0.75, 0.50}

// percentiles returns the median of sorted and the highest percentile in
// tailLevels that leaves at least ten samples above it, or ok=false when
// there are too few samples for even the median.
func percentiles(sorted []int64) (p50, tail int64, level float64, ok bool) {
	n := len(sorted)
	rank := func(q float64) int { return int(q*float64(n-1) + 0.5) }
	for _, q := range tailLevels {
		if k := rank(q); n > 0 && n-1-k >= 10 {
			return sorted[rank(0.5)], sorted[k], q, true
		}
	}
	return 0, 0, 0, false
}

// timedTechnique runs each phase of a tracking technique in a span. With
// a nil recorder it only forwards, so traced and untraced passes make the
// same calls.
type timedTechnique struct {
	tracking.Technique
	rec                        *recorder
	initName, collName, clName string
}

func newTimedTechnique(t tracking.Technique, rec *recorder) timedTechnique {
	prefix := "tracking." + techName(t.Kind())
	return timedTechnique{Technique: t, rec: rec,
		initName: prefix + ".init", collName: prefix + ".collect", clName: prefix + ".close"}
}

func (t timedTechnique) Init() error { return t.rec.do(t.initName, t.Technique.Init) }

func (t timedTechnique) Collect() (pages []mem.GVA, err error) {
	err = t.rec.do(t.collName, func() error {
		pages, err = t.Technique.Collect()
		return err
	})
	return pages, err
}

func (t timedTechnique) Close() error { return t.rec.do(t.clName, t.Technique.Close) }
