package monitor

import (
	"encoding/json"
	"io"
	"slices"
	"sort"

	"repro/internal/metrics"
)

// Snapshot is the monitor's full deterministic state dump: the input to
// the explain report and the unit the byte-identity tests compare.

// EstimatorSnap is one estimator's state: cumulative pages, final rates,
// and the per-tick series of both estimators.
type EstimatorSnap struct {
	Name    string          `json:"name"`  // "vm0/pml", "vm0/tech/EPML", ...
	Pages   int64           `json:"pages"` // cumulative dirty pages observed
	RatePPS int64           `json:"rate_pps"`
	EWMAPPS int64           `json:"ewma_pps"`
	Rate    []metrics.Point `json:"rate,omitempty"`
	EWMA    []metrics.Point `json:"ewma,omitempty"`
}

// RoundSnap is one pre-copy round series with the predictor's verdict.
type RoundSnap struct {
	Cell          int    `json:"cell"`
	VM            int32  `json:"vm"`
	Sub           string `json:"sub"`
	Dirty         []int  `json:"dirty"` // dirty pages per round, in order
	RatioPermille int64  `json:"ratio_permille"`
	// RoundsToConverge is the final extrapolation; -1 = never.
	RoundsToConverge int  `json:"rounds_to_converge"`
	Flagged          bool `json:"flagged"` // predictor raised non-convergence
}

// Snapshot is the monitor's exported state.
type Snapshot struct {
	IntervalNs  int64           `json:"interval_ns"`
	WindowNs    int64           `json:"window_ns"`
	Rules       []string        `json:"rules,omitempty"`
	Estimators  []EstimatorSnap `json:"estimators,omitempty"`
	Rounds      []RoundSnap     `json:"rounds,omitempty"`
	Alerts      []Alert         `json:"alerts,omitempty"`
	Predictions []Prediction    `json:"predictions,omitempty"`
}

// Snapshot captures the monitor's state deterministically: estimators
// sorted by label, rounds by (cell, vm, sub), alerts by (TS, cell, seq).
// Nil-receiver safe (returns the zero snapshot).
func (m *Monitor) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	s := Snapshot{
		IntervalNs:  int64(tickInterval),
		WindowNs:    int64(rateWindow),
		Rules:       m.Rules(),
		Alerts:      m.Alerts(),
		Predictions: m.Predictions(),
	}
	for _, k := range m.estOrder {
		e := m.est[k]
		s.Estimators = append(s.Estimators, EstimatorSnap{
			Name:    e.label,
			Pages:   e.count,
			RatePPS: e.rate,
			EWMAPPS: e.ewma,
			Rate:    slices.Clone(e.ratePts),
			EWMA:    slices.Clone(e.ewmaPts),
		})
	}
	sort.Slice(s.Estimators, func(i, j int) bool {
		return s.Estimators[i].Name < s.Estimators[j].Name
	})
	for k, rs := range m.rounds {
		s.Rounds = append(s.Rounds, RoundSnap{
			Cell:             k.cell,
			VM:               k.vm,
			Sub:              k.sub,
			Dirty:            append([]int(nil), rs.dirty...),
			RatioPermille:    rs.ratioPm,
			RoundsToConverge: rs.toGo,
			Flagged:          rs.flagged,
		})
	}
	sort.Slice(s.Rounds, func(i, j int) bool {
		a, b := s.Rounds[i], s.Rounds[j]
		if a.Cell != b.Cell {
			return a.Cell < b.Cell
		}
		if a.VM != b.VM {
			return a.VM < b.VM
		}
		return a.Sub < b.Sub
	})
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
