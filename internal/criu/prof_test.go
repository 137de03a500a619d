package criu

import (
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/machine"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// profiledCheckpoint runs a full pre-copy checkpoint on a machine with a
// profiler attached and returns the profiler plus the checkpoint stats.
func profiledCheckpoint(t *testing.T, kind costmodel.Technique) (*prof.Profiler, Stats) {
	t.Helper()
	p := prof.New()
	m, err := machine.New(machine.Config{Profiler: p})
	if err != nil {
		t.Fatalf("machine.New: %v", err)
	}
	g := m.Guest(0)
	proc := g.Kernel.Spawn("kv")
	w, err := workloads.New("stdhash", workloads.Small, 1)
	if err != nil {
		t.Fatalf("workloads.New: %v", err)
	}
	if err := w.Setup(workloads.NewRegionAlloc(proc, false), sim.NewRNG(21)); err != nil {
		t.Fatalf("Setup: %v", err)
	}
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	tech, err := g.NewTechnique(kind, proc)
	if err != nil {
		t.Fatalf("NewTechnique: %v", err)
	}
	ckpt := New(proc, tech, Options{MaxRounds: 2})
	_, stats, err := ckpt.Run(func(round int) error { return w.Run() })
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	return p, stats
}

// TestCheckpointRoundSpansMatchStats is the profiler's exactness
// cross-check against the pre-existing stats plane: every checkpoint round
// span (the RoundOp rounds plus the final stop_and_copy) wraps exactly the
// collect+dump work whose stopwatches feed Stats.MD and Stats.MW, so their
// inclusive virtual time must sum to MD+MW to the nanosecond; likewise the
// init span against Stats.Init.
func TestCheckpointRoundSpansMatchStats(t *testing.T) {
	for _, kind := range machine.RealTechniques() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			p, stats := profiledCheckpoint(t, kind)
			var roundsIncl, initIncl int64
			rounds := 0
			for _, ps := range p.Tree().Paths() {
				if len(ps.Path) != 2 || ps.Path[0] != (prof.Frame{Sub: prof.SubCRIU, Op: "checkpoint"}) {
					continue
				}
				switch op := ps.Path[1].Op; {
				case op == "init":
					initIncl += ps.Incl
				case op == "stop_and_copy":
					roundsIncl += ps.Incl
				default:
					if _, ok := prof.RoundNumber(op); ok {
						roundsIncl += ps.Incl
						rounds++
					}
				}
			}
			if rounds < 2 {
				t.Fatalf("profile has %d round spans, want >= 2 (round 0 + pre-copy)", rounds)
			}
			if want := stats.Init.Nanoseconds(); initIncl != want {
				t.Errorf("init span = %dns, want Stats.Init %dns", initIncl, want)
			}
			if want := (stats.MD + stats.MW).Nanoseconds(); roundsIncl != want {
				t.Errorf("round spans sum to %dns, want MD+MW %dns (MD=%v MW=%v)",
					roundsIncl, want, stats.MD, stats.MW)
			}
		})
	}
}

// TestCheckpointCriticalPath asserts CriticalPath names a dominant path for
// every checkpoint round, in round order, with a sane share.
func TestCheckpointCriticalPath(t *testing.T) {
	p, stats := profiledCheckpoint(t, costmodel.SPML)
	paths := p.CriticalPath()
	var criuRounds []prof.RoundPath
	for _, r := range paths {
		if r.Sub == prof.SubCRIU {
			criuRounds = append(criuRounds, r)
		}
	}
	// Every dumped round got a span: rounds 0..Stats.Rounds-2 are RoundOp
	// rounds and the last dump ran under stop_and_copy (not a round span).
	if want := stats.Rounds - 1; len(criuRounds) != want {
		t.Fatalf("CriticalPath has %d criu rounds, want %d (stats.Rounds=%d)",
			len(criuRounds), want, stats.Rounds)
	}
	for i, r := range criuRounds {
		if r.Round != i {
			t.Errorf("criu rounds out of order: position %d holds round %d", i, r.Round)
		}
		if r.Total <= 0 || r.Count == 0 {
			t.Errorf("round %d: Total=%d Count=%d", r.Round, r.Total, r.Count)
		}
		if r.Dominant() == "" {
			t.Errorf("round %d has no dominant path", r.Round)
		}
		if s := r.Share(); s <= 0 || s > 1 {
			t.Errorf("round %d share = %v, want (0, 1]", r.Round, s)
		}
	}
	// Round 0 is a pure full dump: its dominant step must be the dump.
	if d := criuRounds[0].Dominant(); !strings.Contains(d, "dump") {
		t.Errorf("round 0 dominant path %q does not name the dump", d)
	}
	if tab := p.CriticalPathTable(); tab == nil {
		t.Error("CriticalPathTable is nil despite round spans")
	} else if out := tab.Render(); !strings.Contains(out, "criu") {
		t.Errorf("critical path table missing criu rows:\n%s", out)
	}
}
