package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"

	"repro/internal/experiments"
	"repro/internal/tracking"
)

// paperIDs are the paper's tables and figures, in oohbench's order. The
// ablations and robustness grids are not part of the paper's evaluation.
var paperIDs = []string{
	"table1", "table2", "table4", "table5", "table6",
	"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
}

var paperEval = &workload{
	name:  "paper-eval",
	cells: len(paperIDs),
	setup: setupPaperEval,
}

// paperOutput is one experiment's simulated output: its rendered tables
// and the pages its tracking techniques reported.
type paperOutput struct {
	Tables string `json:"tables"`
	Pages  int64  `json:"pages"`
}

func setupPaperEval(seed uint64, rec *recorder) (func() ([]cellResult, int64), error) {
	opt := experiments.Options{Workers: nproc(), Seed: seed, SeedSet: true}
	timed := func() ([]cellResult, int64) {
		cells := make([]cellResult, len(paperIDs))
		for i, id := range paperIDs {
			c := &cells[i]
			c.ID = id
			rec.setCell(id)
			var res *experiments.Result
			pages0 := tracking.PagesReported()
			err := rec.do("experiments."+id, func() (err error) {
				res, err = experiments.Run(id, opt)
				return err
			})
			if err != nil {
				c.fail(err)
				continue
			}
			pages := tracking.PagesReported() - pages0
			c.setOutput(paperOutput{Tables: res.Render(), Pages: pages})
			c.Counts = map[string]int64{"tracking.pages_reported": pages}
			if seed == experiments.DefaultSeed {
				c.fail(checkBenchBaseline(res, pages))
			}
		}
		return cells, 0
	}
	return timed, nil
}

// checkBenchBaseline compares an experiment at the default seed against
// the repository's committed BENCH_<id>.json baseline, when there is one:
// the tables must be identical and the tracked page count equal.
func checkBenchBaseline(res *experiments.Result, pages int64) error {
	data, err := os.ReadFile("BENCH_" + res.ID + ".json")
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var base experiments.BenchReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("BENCH_%s.json: %w", res.ID, err)
	}
	got := experiments.NewBenchReport(experiments.Options{}, []*experiments.Result{res}, nil).Experiments
	for _, exp := range base.Experiments {
		if exp.ID == res.ID && !reflect.DeepEqual(exp, got[0]) {
			return fmt.Errorf("%s tables differ from BENCH_%s.json", res.ID, res.ID)
		}
	}
	for _, p := range base.Perf {
		if p.ID == res.ID && p.PagesTracked != pages {
			return fmt.Errorf("%s tracked %d pages, BENCH_%s.json has %d", res.ID, pages, res.ID, p.PagesTracked)
		}
	}
	return nil
}
