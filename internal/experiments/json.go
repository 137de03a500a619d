package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"

	"repro/internal/metrics"
	"repro/internal/report"
)

// BenchSchema identifies the machine-readable bench report format. Bump it
// only on breaking changes; CI validates every emitted report against it.
const BenchSchema = "ooh-bench/v1"

// BenchTable is one rendered result table in machine-readable form. It
// mirrors report.Table exactly: headers name the columns, every row has
// len(headers) cells, all pre-stringified with the same formatting the
// ASCII renderer uses (so JSON and terminal output never disagree).
type BenchTable struct {
	Caption string     `json:"caption"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// BenchExperiment is one experiment's result.
type BenchExperiment struct {
	ID     string       `json:"id"`
	Title  string       `json:"title"`
	Tables []BenchTable `json:"tables"`
}

// BenchPerf is one experiment's simulated tracking volume: the dirty
// page addresses its tracking techniques reported (the
// tracking.PagesReported delta over its one run). It counts simulated
// events, so it is as deterministic as the tables; host time is
// perfbench's to measure.
type BenchPerf struct {
	ID           string `json:"id"`
	PagesTracked int64  `json:"pages_tracked"`
}

// BenchReport is the stable machine-readable output of `oohbench -json`.
// Two runs with identical options produce byte-identical reports (the
// determinism tests pin this); downstream tooling may diff them directly.
type BenchReport struct {
	Schema      string            `json:"schema"`
	Seed        uint64            `json:"seed"`
	Scale       int               `json:"scale"`
	Full        bool              `json:"full"`
	Experiments []BenchExperiment `json:"experiments"`
	// Perf holds each experiment's pages-tracked count.
	Perf []BenchPerf `json:"perf,omitempty"`
	// Metrics is the end-of-run registry snapshot, present only when the
	// run had -metrics attached.
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
}

// NewBenchReport assembles a report from finished experiment results.
// reg may be nil (no metrics snapshot).
func NewBenchReport(opt Options, results []*Result, reg *metrics.Registry) *BenchReport {
	opt = opt.withDefaults()
	r := &BenchReport{
		Schema: BenchSchema,
		Seed:   opt.Seed,
		Scale:  opt.Scale,
		Full:   opt.Full,
	}
	for _, res := range results {
		if res == nil {
			continue
		}
		exp := BenchExperiment{ID: res.ID, Title: res.Title}
		for _, t := range res.Tables {
			exp.Tables = append(exp.Tables, benchTableFrom(t))
		}
		r.Experiments = append(r.Experiments, exp)
	}
	if reg != nil {
		snap := reg.Snapshot()
		r.Metrics = &snap
	}
	return r
}

func benchTableFrom(t *report.Table) BenchTable {
	return BenchTable{Caption: t.Caption, Headers: t.Headers, Rows: t.Rows, Notes: t.Notes}
}

// WriteJSON writes the report as indented JSON.
func (r *BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// CompareBenchReports checks a freshly regenerated candidate report
// against a committed baseline. Every section must match exactly: same
// options, same experiments, byte-equal tables, equal pages-tracked
// counts.
//
// All mismatches are accumulated (errors.Join), not just the first, so
// one CI run shows the full regression surface.
func CompareBenchReports(baseline, candidate *BenchReport) error {
	var errs []error
	if baseline.Schema != candidate.Schema {
		errs = append(errs, fmt.Errorf("schema %q vs %q", candidate.Schema, baseline.Schema))
	}
	if baseline.Seed != candidate.Seed || baseline.Scale != candidate.Scale || baseline.Full != candidate.Full {
		errs = append(errs, fmt.Errorf("options differ: baseline seed=%d scale=%d full=%v, candidate seed=%d scale=%d full=%v",
			baseline.Seed, baseline.Scale, baseline.Full, candidate.Seed, candidate.Scale, candidate.Full))
	}
	if len(baseline.Experiments) != len(candidate.Experiments) {
		errs = append(errs, fmt.Errorf("%d experiments, baseline has %d", len(candidate.Experiments), len(baseline.Experiments)))
	}
	for i, be := range baseline.Experiments {
		if i >= len(candidate.Experiments) {
			break
		}
		ce := candidate.Experiments[i]
		if be.ID != ce.ID {
			errs = append(errs, fmt.Errorf("experiment %d is %q, baseline has %q", i, ce.ID, be.ID))
			continue
		}
		if !reflect.DeepEqual(be.Tables, ce.Tables) {
			errs = append(errs, fmt.Errorf("%s: result tables diverge from the committed baseline - the simulation output changed", be.ID))
		}
	}
	for _, bp := range baseline.Perf {
		var cp *BenchPerf
		for i := range candidate.Perf {
			if candidate.Perf[i].ID == bp.ID {
				cp = &candidate.Perf[i]
				break
			}
		}
		if cp == nil {
			errs = append(errs, fmt.Errorf("%s: baseline has a perf entry, candidate does not", bp.ID))
			continue
		}
		if cp.PagesTracked != bp.PagesTracked {
			errs = append(errs, fmt.Errorf("%s: pages_tracked %d, baseline %d - the simulated workload changed",
				bp.ID, cp.PagesTracked, bp.PagesTracked))
		}
	}
	return errors.Join(errs...)
}

// ValidateBenchReport checks a serialized report against the ooh-bench/v1
// schema: correct schema tag, at least one experiment, every table
// rectangular with non-empty headers, no experiment or perf id twice (the
// diff engine pairs entries by id). CI runs this over the emitted
// BENCH_*.json artifacts.
func ValidateBenchReport(data []byte) error {
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return fmt.Errorf("bench report: not valid JSON: %w", err)
	}
	if r.Schema != BenchSchema {
		return fmt.Errorf("bench report: schema %q, want %q", r.Schema, BenchSchema)
	}
	if len(r.Experiments) == 0 {
		return fmt.Errorf("bench report: no experiments")
	}
	seen := make(map[string]bool, len(r.Experiments))
	for _, exp := range r.Experiments {
		if exp.ID == "" {
			return fmt.Errorf("bench report: experiment with empty id")
		}
		if seen[exp.ID] {
			return fmt.Errorf("bench report: experiment %q appears twice", exp.ID)
		}
		seen[exp.ID] = true
		if len(exp.Tables) == 0 {
			return fmt.Errorf("bench report: experiment %q has no tables", exp.ID)
		}
		for ti, t := range exp.Tables {
			if len(t.Headers) == 0 {
				return fmt.Errorf("bench report: %s table %d has no headers", exp.ID, ti)
			}
			for ri, row := range t.Rows {
				if len(row) != len(t.Headers) {
					return fmt.Errorf("bench report: %s table %d row %d has %d cells, want %d",
						exp.ID, ti, ri, len(row), len(t.Headers))
				}
			}
		}
	}
	clear(seen)
	for _, p := range r.Perf {
		if p.ID == "" {
			return fmt.Errorf("bench report: perf entry with empty id")
		}
		if seen[p.ID] {
			return fmt.Errorf("bench report: perf %s appears twice", p.ID)
		}
		seen[p.ID] = true
		if p.PagesTracked < 0 {
			return fmt.Errorf("bench report: perf %s has negative pages_tracked %d", p.ID, p.PagesTracked)
		}
	}
	return nil
}
