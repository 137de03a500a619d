package obsdiff

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// maxMarkdownRows caps the per-section row count in the markdown
// rendering; the JSON report always carries everything. Sections note
// what they dropped.
const maxMarkdownRows = 25

// WriteMarkdown renders the delta report as a human-readable markdown
// document: verdict first, then attribution, metrics, rounds, tables and
// pages-tracked counts. Sections with no data are omitted; output is
// deterministic.
func (r *Report) WriteMarkdown(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# Run diff: %s vs %s\n\n", r.Old, r.New)
	fmt.Fprintf(&b, "**Verdict:** %s\n\n", r.Verdict)
	if r.Empty {
		_, err := io.WriteString(w, b.String())
		return err
	}

	if len(r.TopPaths) > 0 {
		fmt.Fprintf(&b, "## Attribution (%d.%d%% of %s total swing)\n\n",
			r.AttributedPermille/10, r.AttributedPermille%10, signedDur(r.TotalInclDeltaNs))
		b.WriteString("| call path | excl Δ | old excl | new excl | incl Δ | count Δ |\n")
		b.WriteString("|---|---:|---:|---:|---:|---:|\n")
		for i, p := range r.TopPaths {
			if i == maxMarkdownRows {
				fmt.Fprintf(&b, "\n(%d more attributed paths in the JSON report)\n", len(r.TopPaths)-i)
				break
			}
			fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s | %+d |\n",
				p.Path, signedDur(p.ExclDeltaNs), dur(p.OldExclNs), dur(p.NewExclNs),
				signedDur(p.InclDeltaNs), p.NewCount-p.OldCount)
		}
		b.WriteString("\nExclusive deltas partition the total inclusive swing: summed over every path they equal it exactly, so the rows above are the named causes, not correlates.\n\n")
	}

	writeMetricSection := func(title string, rows []string) {
		if len(rows) == 0 {
			return
		}
		fmt.Fprintf(&b, "## %s\n\n", title)
		b.WriteString("| metric | Δ | old | new |\n|---|---:|---:|---:|\n")
		for i, row := range rows {
			if i == maxMarkdownRows {
				fmt.Fprintf(&b, "\n(%d more in the JSON report)\n", len(rows)-i)
				break
			}
			b.WriteString(row)
		}
		b.WriteString("\n")
	}
	var counterRows []string
	for _, c := range r.Counters {
		counterRows = append(counterRows, fmt.Sprintf("| `%s` | %+d | %d | %d |\n", c.Key(), c.Delta(), c.Old, c.New))
	}
	writeMetricSection("Counters (ranked by |Δ|)", counterRows)
	var gaugeRows []string
	for _, g := range r.Gauges {
		gaugeRows = append(gaugeRows, fmt.Sprintf("| `%s` | %+d | %d | %d |\n", g.Key(), g.Delta(), g.Old, g.New))
	}
	writeMetricSection("Gauges (ranked by |Δ|)", gaugeRows)

	if len(r.Histograms) > 0 {
		b.WriteString("## Histograms\n\n")
		b.WriteString("| histogram | count Δ | sum Δ | p50 | p90 | p99 | max |\n")
		b.WriteString("|---|---:|---:|---|---|---|---|\n")
		for _, h := range r.Histograms {
			fmt.Fprintf(&b, "| `%s` | %+d | %+d | %d→%d | %d→%d | %d→%d | %d→%d |\n",
				h.Key(), h.CountDelta(), h.SumDelta(),
				h.Old.P50, h.New.P50, h.Old.P90, h.New.P90,
				h.Old.P99, h.New.P99, h.Old.Max, h.New.Max)
		}
		b.WriteString("\n")
	}

	if len(r.Rounds) > 0 {
		b.WriteString("## Round attribution\n\n")
		b.WriteString("| phase | round | total Δ | old total | new total | dirty | dominant path |\n")
		b.WriteString("|---|---:|---:|---:|---:|---|---|\n")
		for _, rd := range r.Rounds {
			dom := rd.NewDominant
			if rd.DominantMoved {
				dom = fmt.Sprintf("%s → %s", rd.OldDominant, rd.NewDominant)
			}
			fmt.Fprintf(&b, "| %s | %d | %s | %s | %s | %s | %s |\n",
				rd.Sub, rd.Round, signedDur(rd.DeltaNs), dur(rd.OldTotalNs), dur(rd.NewTotalNs),
				dirtyPair(rd.OldDirty, rd.NewDirty), dom)
		}
		b.WriteString("\n")
	}

	if len(r.Tables) > 0 {
		b.WriteString("## Bench table divergence\n\n")
		b.WriteString("| experiment | table | row | column | old | new |\n")
		b.WriteString("|---|---|---:|---|---|---|\n")
		for i, c := range r.Tables {
			if i == maxMarkdownRows {
				fmt.Fprintf(&b, "\n(%d more diverging cells in the JSON report)\n", len(r.Tables)-i)
				break
			}
			fmt.Fprintf(&b, "| %s | %s | %d | %s | %s | %s |\n",
				c.Experiment, c.Table, c.Row, c.Header, c.Old, c.New)
		}
		b.WriteString("\n")
	}

	if len(r.Perf) > 0 {
		b.WriteString("## Pages tracked\n\n")
		b.WriteString("| experiment | pages tracked |\n|---|---|\n")
		for _, p := range r.Perf {
			fmt.Fprintf(&b, "| %s | %d→%d |\n", p.ID, p.OldPagesTracked, p.NewPagesTracked)
		}
		b.WriteString("\n")
	}

	_, err := io.WriteString(w, b.String())
	return err
}

func dur(ns int64) string { return time.Duration(ns).String() }

func signedDur(ns int64) string {
	if ns >= 0 {
		return "+" + time.Duration(ns).String()
	}
	return time.Duration(ns).String()
}

func dirtyPair(old, new int) string {
	f := func(v int) string {
		if v < 0 {
			return "-"
		}
		return fmt.Sprintf("%d", v)
	}
	return f(old) + "→" + f(new)
}
