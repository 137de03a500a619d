package explain

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/migration"
	"repro/internal/monitor"
	"repro/internal/prof"
	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// cannedInput is a hand-built, fully deterministic report input covering
// every section: rules, alerts, a prediction, estimators, a round series
// and a critical path.
func cannedInput() Input {
	return Input{
		Title: "canned migration storm",
		Monitor: monitor.Snapshot{
			IntervalNs: time.Millisecond.Nanoseconds(),
			WindowNs:   (8 * time.Millisecond).Nanoseconds(),
			Rules:      []string{"monitor/dirty_rate_pps{vm0/pml} > 5000 for 2ms"},
			Estimators: []monitor.EstimatorSnap{{
				Name: "vm0/pml", Pages: 101, RatePPS: 10000, EWMAPPS: 9437,
				Rate: []metrics.Point{{TS: 0, V: 0}, {TS: 1000000, V: 10000}},
			}},
			Rounds: []monitor.RoundSnap{{
				Cell: 0, VM: 0, Sub: "migration",
				Dirty: []int{480, 480, 480}, RatioPermille: 1000,
				RoundsToConverge: monitor.NeverConverges, Flagged: true,
			}},
			Alerts: []monitor.Alert{
				{TS: 3000000, Cell: 0, Seq: 0, Rule: "monitor/dirty_rate_pps{vm0/pml} > 5000 for 2ms",
					State: monitor.StateFiring, VM: -1, Value: 10000, Threshold: 5000},
				{TS: 5000000, Cell: 0, Seq: 1, Rule: "convergence",
					State: monitor.StatePredict, VM: 0, Value: 480, Threshold: 64,
					Detail: "migration round 2/4: dirty=480 ratio=1000pm, projected 480 pages at stop-and-copy (target 64)"},
			},
			Predictions: []monitor.Prediction{{
				TS: 5000000, Cell: 0, VM: 0, Sub: "migration", Round: 2,
				Dirty: 480, RatioPermille: 1000,
				RoundsToConverge: monitor.NeverConverges,
				EstDowntimeNs:    10000000, BudgetNs: 1000000,
			}},
		},
		Metrics: metrics.Snapshot{
			Gauges: []metrics.GaugeSnap{
				{Subsystem: "monitor", Name: "dirty_rate_pps", Label: "vm0/pml", Value: 10000},
				{Subsystem: "cpu", Name: "other", Label: "", Value: 5},
			},
		},
		CriticalPath: []prof.RoundPath{
			{Sub: "migration", Round: 0, Total: 7000000, Count: 1,
				Steps: []prof.PathStep{{Frame: prof.Frame{Sub: "migration", Op: "send"}, Incl: 6300000}}},
			{Sub: "migration", Round: 1, Total: 2000000, Count: 1,
				Steps: []prof.PathStep{{Frame: prof.Frame{Sub: "migration", Op: "collect"}, Incl: 1500000}}},
			{Sub: "migration", Round: 2, Total: 2100000, Count: 1,
				Steps: []prof.PathStep{{Frame: prof.Frame{Sub: "migration", Op: "send"}, Incl: 1200000}}},
		},
	}
}

// TestBuildJoins pins the fusion rules: dirty sizes join only unambiguous
// 1-based rounds, monitor gauges are filtered from the metrics snapshot,
// and critical-path totals are copied verbatim.
func TestBuildJoins(t *testing.T) {
	r := Build(cannedInput())
	if r.Schema != Schema {
		t.Fatalf("schema = %q", r.Schema)
	}
	if len(r.Rounds) != 3 {
		t.Fatalf("rounds = %+v", r.Rounds)
	}
	if r.Rounds[0].Dirty != -1 {
		t.Errorf("round 0 (full copy) joined dirty %d, want -1", r.Rounds[0].Dirty)
	}
	if r.Rounds[1].Dirty != 480 || r.Rounds[2].Dirty != 480 {
		t.Errorf("dirty joins = %d, %d, want 480, 480", r.Rounds[1].Dirty, r.Rounds[2].Dirty)
	}
	if r.Rounds[0].TotalNs != 7000000 {
		t.Errorf("TotalNs = %d, want verbatim 7000000", r.Rounds[0].TotalNs)
	}
	if r.Rounds[0].SharePermille != 900 {
		t.Errorf("share = %d, want 900", r.Rounds[0].SharePermille)
	}
	if len(r.Monitor) != 1 || r.Monitor[0].Subsystem != "monitor" {
		t.Errorf("monitor gauges = %+v, want only the monitor subsystem", r.Monitor)
	}
	if first := r.FirstFired(); first == nil || first.State != monitor.StateFiring {
		t.Errorf("FirstFired = %+v", first)
	}
	if dom := r.DominantRound(); dom == nil || dom.Round != 0 {
		t.Errorf("DominantRound = %+v, want round 0", dom)
	}
}

// TestBuildAmbiguousJoinStaysUnjoined: two round series for the same
// subsystem (a merged grid) cannot be told apart per profiler round; the
// dirty column must stay -1 rather than guess.
func TestBuildAmbiguousJoinStaysUnjoined(t *testing.T) {
	in := cannedInput()
	second := in.Monitor.Rounds[0]
	second.Cell = 1
	in.Monitor.Rounds = append(in.Monitor.Rounds, second)
	r := Build(in)
	for _, rd := range r.Rounds {
		if rd.Dirty != -1 {
			t.Errorf("ambiguous grid joined dirty %d at round %d, want -1", rd.Dirty, rd.Round)
		}
	}
}

// TestGoldenReport pins the exact markdown and JSON bytes of the canned
// report - the regression guard CI's monitor job runs. Regenerate with
// `go test ./internal/monitor/explain/ -run Golden -update`.
func TestGoldenReport(t *testing.T) {
	r := Build(cannedInput())
	check := func(name string, write func(*bytes.Buffer) error) {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", name)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s drifted from golden (regenerate with -update if intended):\n%s", name, buf.Bytes())
		}
	}
	check("report.md", func(b *bytes.Buffer) error { return r.WriteMarkdown(b) })
	check("report.json", func(b *bytes.Buffer) error { return r.WriteJSON(b) })
}

// TestRoundAttributionMatchesProfiler is the acceptance property on a real
// run: a canned migration under a dirty-rate storm must produce an explain
// report whose round attribution equals prof.CriticalPath to the
// nanosecond, with every dirty round joined to the monitor's series.
func TestRoundAttributionMatchesProfiler(t *testing.T) {
	reg := metrics.NewRegistry()
	mon := monitor.New(monitor.Config{})
	p := prof.New()
	m, err := machine.New(machine.Config{Metrics: reg, Monitor: mon, Profiler: p})
	if err != nil {
		t.Fatal(err)
	}
	g := m.Guest(0)
	proc := g.Kernel.Spawn("app")
	region, err := proc.Mmap(128*mem.PageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(7)
	for i := 0; i < 128; i++ {
		if err := proc.WriteU64(region.Start.Add(uint64(i)*mem.PageSize), rng.Uint64()); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err = migration.Migrate(g.VM, migration.Options{
		MaxRounds:           4,
		BandwidthPagesPerMS: 64,
		DowntimeTargetPages: 8,
	}, func(round int) error {
		n := 32 >> uint(round-1)
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			if err := proc.WriteU64(region.Start.Add(uint64(i)*mem.PageSize), uint64(round)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	cp := p.CriticalPath()
	if len(cp) == 0 {
		t.Fatal("no critical path from the profiled migration")
	}
	rep := Build(Input{
		Title:        "canned",
		Monitor:      mon.Snapshot(),
		Metrics:      reg.Snapshot(),
		CriticalPath: cp,
	})
	if len(rep.Rounds) != len(cp) {
		t.Fatalf("%d report rounds vs %d critical-path rounds", len(rep.Rounds), len(cp))
	}
	series := mon.Snapshot().Rounds
	if len(series) != 1 {
		t.Fatalf("monitor series = %+v, want one", series)
	}
	for i, rd := range rep.Rounds {
		if rd.TotalNs != cp[i].Total {
			t.Errorf("round %d: report %d ns != profiler %d ns", rd.Round, rd.TotalNs, cp[i].Total)
		}
		if rd.Round == 0 {
			if rd.Dirty != -1 {
				t.Errorf("round 0 dirty = %d, want -1 (unobserved full copy)", rd.Dirty)
			}
			continue
		}
		if rd.Round <= len(series[0].Dirty) && rd.Dirty != series[0].Dirty[rd.Round-1] {
			t.Errorf("round %d dirty = %d, monitor saw %d", rd.Round, rd.Dirty, series[0].Dirty[rd.Round-1])
		}
	}
}
