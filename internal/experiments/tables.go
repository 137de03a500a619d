package experiments

import (
	"fmt"
	"sort"

	"repro/internal/costmodel"
	"repro/internal/report"
	"repro/internal/workloads"
)

// Result is one regenerated table or figure.
type Result struct {
	ID     string
	Title  string
	Tables []*report.Table
}

// Render concatenates the result's tables.
func (r *Result) Render() string {
	out := ""
	for _, t := range r.Tables {
		out += t.Render() + "\n"
	}
	return out
}

// Table1 regenerates Table I: overhead (%) of ufd- and /proc-based dirty
// page tracking on Tracked and Tracker while varying the array size.
func Table1(opt Options) (*Result, error) {
	opt = opt.withDefaults()
	sizes := opt.microSizes()
	grid, err := microGrid(opt, []costmodel.Technique{costmodel.Ufd, costmodel.Proc}, sizes)
	if err != nil {
		return nil, err
	}

	tracked := report.NewTable("Table I (top): overhead (%) on Tracked", sizeHeaders("On Tracked", sizes)...)
	tracker := report.NewTable("Table I (bottom): overhead (%) on Tracker", sizeHeaders("On Tracker", sizes)...)
	for _, cells := range rows(grid, len(sizes)) {
		rowTd := []any{cells[0].Technique.String()}
		rowTk := []any{cells[0].Technique.String()}
		for _, r := range cells {
			rowTd = append(rowTd, fmt.Sprintf("%.0f", r.TrackedOverheadPct()))
			rowTk = append(rowTk, fmt.Sprintf("%.0f", r.TrackerOverheadPct()))
		}
		tracked.AddRow(rowTd...)
		tracker.AddRow(rowTk...)
	}
	tracked.AddNote("paper (1GB): ufd 1,463%%, /proc 335%% - ordering and growth with size must match")
	tracker.AddNote("paper (1GB): ufd 1,349%%, /proc up to 147%%")
	return &Result{ID: "table1", Title: "Table I: ufd and /proc overhead", Tables: []*report.Table{tracked, tracker}}, nil
}

// Table2 regenerates Table II: the paper's implementation LOC alongside
// this reproduction's per-package inventory (supplied by the caller, which
// can count source lines; the library itself stays filesystem-free).
func Table2(loc map[string]int) (*Result, error) {
	paper := report.NewTable("Table II (paper): LOC and files modified per system",
		"System", "Xen", "Linux", "Bochs", "CRIU", "Boehm")
	paper.AddRow("#LOC SPML", 182, 6, "N/A", 251, 254)
	paper.AddRow("#LOC EPML", 120, 14, 44, 140, 144)
	paper.AddRow("#files SPML", 13, 2, "N/A", 9, 4)
	paper.AddRow("#files EPML", 9, 9, 6, 9, 4)

	res := &Result{ID: "table2", Title: "Table II: implementation size", Tables: []*report.Table{paper}}
	if len(loc) > 0 {
		ours := report.NewTable("This reproduction: Go lines per subsystem", "Package", "LOC")
		names := make([]string, 0, len(loc))
		for name := range loc {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ours.AddRow(name, loc[name])
		}
		res.Tables = append(res.Tables, ours)
	}
	return res, nil
}

// Table4 regenerates Table IV: validation of the formula engine. The
// Listing-1 array parser runs under SPML, /proc and EPML with no planes
// attached, and the measured E(C_tker) and E(C_tked_tker) are compared
// against Formulas 1-4 evaluated on the observed event counts (the
// counts, not the access pattern, feed the formulas; the parser gives
// deterministic counts). The caption keeps the paper's "CRIU + tkrzw baby"
// wording: the rendered table is pinned output.
func Table4(opt Options) (*Result, error) {
	opt = opt.withDefaults()
	kinds := []costmodel.Technique{costmodel.SPML, costmodel.Proc, costmodel.EPML}
	// 16 MiB per unit of scale: 4096 pages at scale 1.
	grid, err := microGrid(opt.unobserved(), kinds, []int{16 * opt.Scale})
	if err != nil {
		return nil, err
	}

	model := costmodel.Default()
	out := report.NewTable("Table IV: measured vs estimated times (CRIU + tkrzw baby)",
		"Technique", "E(C_tker) meas", "E(C_tker) est", "acc (%)",
		"E(C_tked_tker) meas", "E(C_tked_tker) est", "acc (%)")
	for _, mr := range grid {
		est := model.Estimate(mr.Technique, mr.Counts)
		// E(C_p) is the tracking routine's own work; in the micro scenario
		// it is empty, so E(C_tker) reduces to E(C_x).
		tkerMeas := mr.Tracker
		tkerEst := est.Tracker(0)
		// The formula's E(C_tked_tker) covers the whole tracked run
		// including initialization (the technique's metrics include the
		// init hypercalls/ioctls), so compare against the wall measure.
		tkedMeas := mr.TrackedWall
		tkedEst := est.Tracked(mr.Ideal, 0)
		out.AddRow(mr.Technique.String(),
			tkerMeas, tkerEst, fmt.Sprintf("%.1f", costmodel.Accuracy(tkerEst, tkerMeas)),
			tkedMeas, tkedEst, fmt.Sprintf("%.1f", costmodel.Accuracy(tkedEst, tkedMeas)))
	}
	out.AddNote("paper reports 96.34%% / 99%% average accuracy for Formulas 2 and 4")
	return &Result{ID: "table4", Title: "Table IV: formula validation", Tables: []*report.Table{out}}, nil
}

// Table5 regenerates Table V: the basic costs of metrics M1-M18, constant
// metrics in part (a) and memory-dependent curves in part (b).
func Table5(opt Options) (*Result, error) {
	model := costmodel.Default()
	a := report.NewTable("Table V(a): metrics agnostic to Tracked memory size",
		"Metric", "Cost", "Technique(s)")
	type constRow struct {
		m    costmodel.Metric
		tech string
	}
	for _, row := range []constRow{
		{costmodel.M1ContextSwitch, "All"},
		{costmodel.M3IoctlInitPML, "SPML & EPML"},
		{costmodel.M4IoctlDeactPML, "SPML & EPML"},
		{costmodel.M7VMRead, "EPML"},
		{costmodel.M8VMWrite, "EPML"},
		{costmodel.M9HypInitPML, "SPML"},
		{costmodel.M10HypInitPMLShadow, "EPML"},
		{costmodel.M11HypDeactPML, "SPML"},
		{costmodel.M12HypDeactPMLShadow, "EPML"},
		{costmodel.M13EnablePMLLogging, "SPML"},
	} {
		a.AddRow(row.m.String(), model.ConstCost(row.m), row.tech)
	}

	b := report.NewTable("Table V(b): metrics depending on Tracked memory size (totals)",
		"Metric", "1MB", "10MB", "50MB", "100MB", "250MB", "500MB", "1GB")
	for _, m := range []costmodel.Metric{
		costmodel.M15ClearRefs, costmodel.M16PTWalkUser, costmodel.M5PFHKernel,
		costmodel.M6PFHUser, costmodel.M14DisablePMLLogging,
		costmodel.M18RingBufferCopy, costmodel.M17ReverseMapping,
	} {
		curve, _ := model.MemCurve(m)
		row := []any{m.String()}
		for _, mb := range microSizesMB {
			row = append(row, curve.Total(uint64(mb)<<20))
		}
		b.AddRow(row...)
	}
	return &Result{ID: "table5", Title: "Table V: basic costs", Tables: []*report.Table{a, b}}, nil
}

// Table6 regenerates Table VI: the influence analysis of metrics per
// technique, derived from the cost model's metric associations.
func Table6(opt Options) (*Result, error) {
	out := report.NewTable("Table VI: influence of techniques on internal metrics",
		"Property", "/proc", "ufd", "SPML", "EPML")
	kinds := []costmodel.Technique{costmodel.Proc, costmodel.Ufd, costmodel.SPML, costmodel.EPML}
	fmtMetrics := func(ms []costmodel.Metric) string {
		s := ""
		for i, m := range ms {
			if i > 0 {
				s += ","
			}
			s += fmt.Sprintf("M%d", int(m))
		}
		if s == "" {
			return "-"
		}
		return s
	}
	row := func(label string, pick func(costmodel.Technique) []costmodel.Metric) {
		cells := []any{label}
		for _, k := range kinds {
			cells = append(cells, fmt.Sprintf("%d (%s)", len(pick(k)), fmtMetrics(pick(k))))
		}
		out.AddRow(cells...)
	}
	row("associated metrics", func(k costmodel.Technique) []costmodel.Metric { return k.Metrics() })
	row("mem-dependent metrics", func(k costmodel.Technique) []costmodel.Metric { return k.MemDependentMetrics() })
	row("monitoring-phase metrics", func(k costmodel.Technique) []costmodel.Metric { return k.MonitoringPhaseMetrics() })
	out.AddNote("EPML has a single memory-dependent metric (M18), which is why it scales")
	return &Result{ID: "table6", Title: "Table VI: metric influence analysis", Tables: []*report.Table{out}}, nil
}

// criuWorkloads returns the apps used by the CRIU figures: Phoenix Large +
// tkrzw engines, trimmed when not Full.
func (o Options) criuWorkloads() []string {
	if o.Full {
		return append(workloads.PhoenixNames(), workloads.TkrzwNames()...)
	}
	return []string{"pca", "kmeans", "histogram", "baby", "tiny", "cache"}
}

// boehmApps returns the apps used by the Boehm figures.
func (o Options) boehmApps() []string {
	if o.Full {
		return append([]string{"gcbench"}, "histogram", "string-match", "word-count", "matrix-multiply", "kmeans", "pca")
	}
	return []string{"gcbench", "histogram", "string-match"}
}

// boehmTechniques are the techniques the paper evaluates with Boehm.
func boehmTechniques() []costmodel.Technique {
	return []costmodel.Technique{costmodel.Proc, costmodel.SPML, costmodel.EPML}
}
