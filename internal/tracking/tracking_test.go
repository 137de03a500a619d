package tracking_test

import (
	"testing"
	"testing/quick"

	"repro/internal/costmodel"
	"repro/internal/guestos"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tracking"
)

// TestQuickCompleteness is the property-based form of the completeness
// invariant: for arbitrary write scripts (random pages, random offsets,
// random collection points), every technique reports every truly written
// page. testing/quick generates the scripts.
func TestQuickCompleteness(t *testing.T) {
	for _, kind := range machine.RealTechniques() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			prop := func(script []uint16, seed uint64) bool {
				m, err := machine.New(machine.Config{})
				if err != nil {
					return false
				}
				g := m.Guest(0)
				proc := g.Kernel.Spawn("q")
				const pages = 64
				region, err := proc.Mmap(pages*mem.PageSize, true)
				if err != nil {
					return false
				}
				tech, err := g.NewTechnique(kind, proc)
				if err != nil {
					return false
				}
				if err := tech.Init(); err != nil {
					return false
				}
				ver := tracking.NewVerifier(proc)
				defer ver.Stop()
				ver.Reset()
				rng := sim.NewRNG(seed)
				for _, op := range script {
					page := int(op) % pages
					off := rng.Uint64n(mem.PageSize/8) * 8
					gva := region.Start.Add(uint64(page)*mem.PageSize + off)
					if err := proc.WriteU64(gva, uint64(op)); err != nil {
						return false
					}
					if op%17 == 0 { // occasional mid-script collection
						got, err := tech.Collect()
						if err != nil || ver.MustComplete(got) != nil {
							return false
						}
						ver.Reset()
					}
				}
				got, err := tech.Collect()
				if err != nil {
					return false
				}
				return ver.MustComplete(got) == nil
			}
			cfg := &quick.Config{MaxCount: 15}
			if err := quick.Check(prop, cfg); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestStatsAccumulate sanity-checks the phase accounting contract.
func TestStatsAccumulate(t *testing.T) {
	m, err := machine.New(machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g := m.Guest(0)
	proc := g.Kernel.Spawn("s")
	region, err := proc.Mmap(8*mem.PageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	tech, err := g.NewTechnique(costmodel.Proc, proc)
	if err != nil {
		t.Fatal(err)
	}
	if err := tech.Init(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if err := proc.WriteU64(region.Start, uint64(round)); err != nil {
			t.Fatal(err)
		}
		if _, err := tech.Collect(); err != nil {
			t.Fatal(err)
		}
	}
	s := tech.Stats()
	if s.Collections != 3 {
		t.Errorf("Collections = %d", s.Collections)
	}
	if s.Reported < 3 {
		t.Errorf("Reported = %d", s.Reported)
	}
	if s.InitTime <= 0 || s.CollectTime <= 0 {
		t.Errorf("times not accumulated: init=%v collect=%v", s.InitTime, s.CollectTime)
	}
	if s.TechniqueTime() != s.InitTime+s.CollectTime+s.CloseTime {
		t.Error("TechniqueTime mismatch")
	}
}

// TestOracleZeroCost: the oracle adds no virtual time at all.
func TestOracleZeroCost(t *testing.T) {
	m, err := machine.New(machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g := m.Guest(0)
	proc := g.Kernel.Spawn("o")
	region, err := proc.Mmap(8*mem.PageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	tech, _ := g.NewTechnique(costmodel.Oracle, proc)
	before := g.Kernel.Clock.Nanos()
	if err := tech.Init(); err != nil {
		t.Fatal(err)
	}
	if g.Kernel.Clock.Nanos() != before {
		t.Error("oracle Init advanced the clock")
	}
	if err := proc.WriteU64(region.Start, 1); err != nil {
		t.Fatal(err)
	}
	mid := g.Kernel.Clock.Nanos()
	got, err := tech.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if g.Kernel.Clock.Nanos() != mid {
		t.Error("oracle Collect advanced the clock")
	}
	if len(got) != 1 || got[0] != region.Start {
		t.Errorf("oracle collected %v", got)
	}
}

// TestStackedVerifiersStopOrder is the regression test for the hook
// unchaining bug: Stop() used to restore a saved previous WriteHook
// unconditionally, so stopping verifiers in registration (FIFO) order
// silently detached the ones stacked after. With the id-based hook list,
// both stop orders must leave the surviving verifier recording.
func TestStackedVerifiersStopOrder(t *testing.T) {
	for _, order := range []string{"fifo", "lifo"} {
		t.Run(order, func(t *testing.T) {
			m, err := machine.New(machine.Config{})
			if err != nil {
				t.Fatal(err)
			}
			g := m.Guest(0)
			proc := g.Kernel.Spawn("v")
			region, err := proc.Mmap(8*mem.PageSize, true)
			if err != nil {
				t.Fatal(err)
			}
			v1 := tracking.NewVerifier(proc)
			v2 := tracking.NewVerifier(proc)

			if err := proc.WriteU64(region.Start, 1); err != nil {
				t.Fatal(err)
			}
			if len(v1.Truth()) != 1 || len(v2.Truth()) != 1 {
				t.Fatalf("before stop: truths %v / %v, want 1 page each",
					v1.Truth(), v2.Truth())
			}

			var stopped, survivor *tracking.Verifier
			if order == "fifo" {
				stopped, survivor = v1, v2
			} else {
				stopped, survivor = v2, v1
			}
			stopped.Stop()
			survivor.Reset()

			second := region.Start.Add(mem.PageSize)
			if err := proc.WriteU64(second, 2); err != nil {
				t.Fatal(err)
			}
			truth := survivor.Truth()
			if len(truth) != 1 || truth[0] != second {
				t.Errorf("%s: surviving verifier recorded %v, want [%v]",
					order, truth, second)
			}
			survivor.Stop()
			if n := g.Kernel.VCPU.WriteHookCount(); n != 0 {
				t.Errorf("%s: %d hooks left attached after stopping both", order, n)
			}
		})
	}
}

// TestCollectDropsUnmappedPage dirties a page in each of two regions and
// unmaps one region before collecting. Every technique must drop the
// unmapped page and keep reporting in later rounds.
func TestCollectDropsUnmappedPage(t *testing.T) {
	for _, kind := range machine.RealTechniques() {
		t.Run(kind.String(), func(t *testing.T) {
			m, err := machine.New(machine.Config{})
			if err != nil {
				t.Fatal(err)
			}
			g := m.Guest(0)
			proc := g.Kernel.Spawn("u")
			kept, err := proc.Mmap(4*mem.PageSize, true)
			if err != nil {
				t.Fatal(err)
			}
			gone, err := proc.Mmap(4*mem.PageSize, true)
			if err != nil {
				t.Fatal(err)
			}
			tech, err := g.NewTechnique(kind, proc)
			if err != nil {
				t.Fatal(err)
			}
			if err := tech.Init(); err != nil {
				t.Fatal(err)
			}
			for _, gva := range []mem.GVA{kept.Start, gone.Start} {
				if err := proc.WriteU64(gva, 1); err != nil {
					t.Fatal(err)
				}
			}
			if err := proc.Munmap(gone); err != nil {
				t.Fatal(err)
			}
			got, err := tech.Collect()
			if err != nil {
				t.Fatalf("Collect after munmap: %v", err)
			}
			if len(got) != 1 || got[0] != kept.Start {
				t.Errorf("first round reported %v, want [%v]", got, kept.Start)
			}
			next := kept.Start.Add(mem.PageSize)
			if err := proc.WriteU64(next, 2); err != nil {
				t.Fatal(err)
			}
			got, err = tech.Collect()
			if err != nil {
				t.Fatalf("second Collect: %v", err)
			}
			if len(got) != 1 || got[0] != next {
				t.Errorf("second round reported %v, want [%v]", got, next)
			}
		})
	}
}

// TestUfdFaultsOncePerRound writes one page many times in one round: the
// first write's fault lifts the protection, so ufd takes one fault and
// reports the page once.
func TestUfdFaultsOncePerRound(t *testing.T) {
	m, err := machine.New(machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g := m.Guest(0)
	proc := g.Kernel.Spawn("w")
	region, err := proc.Mmap(4*mem.PageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	tech, err := g.NewTechnique(costmodel.Ufd, proc)
	if err != nil {
		t.Fatal(err)
	}
	if err := tech.Init(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		before := g.Kernel.VCPU.Counters.Get(guestos.CtrUfdFaults)
		for i := uint64(0); i < 50; i++ {
			if err := proc.WriteU64(region.Start.Add(i%8*8), i); err != nil {
				t.Fatal(err)
			}
		}
		if n := g.Kernel.VCPU.Counters.Get(guestos.CtrUfdFaults) - before; n != 1 {
			t.Errorf("round %d: %d ufd faults, want 1", round, n)
		}
		got, err := tech.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != region.Start {
			t.Errorf("round %d: reported %v, want [%v]", round, got, region.Start)
		}
	}
}
