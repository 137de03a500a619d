package pgtable

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"repro/internal/mem"
	"repro/internal/simcache"
)

// modelGVAs spans pages of one 2 MiB region, its neighbour, a region under
// another page directory and one under another PDPT, so walks share and
// miss the paging-structure cache and Unmap prunes leaves and interiors.
func modelGVAs() []mem.GVA {
	var out []mem.GVA
	for _, region := range []uint64{0, 1, 512, 512 * 512} {
		for page := uint64(0); page < 3; page++ {
			out = append(out, mem.GVA(region<<regionShift|page<<mem.PageShift))
		}
	}
	return out
}

// modelGPAs are the frames step maps: 64 low frames, which the reverse
// index's dense array holds and the GVAs alias, and one above
// revDenseFrames, which its side map holds.
func modelGPAs() []mem.GPA {
	out := make([]mem.GPA, 0, 65)
	for frame := 1; frame <= 64; frame++ {
		out = append(out, mem.GPA(frame)<<mem.PageShift)
	}
	return append(out, mem.GPA(revDenseFrames+7)<<mem.PageShift)
}

// modelTable is a Table under test and the flat map it must agree with.
type modelTable struct {
	name  string
	tab   *Table
	model map[mem.GVA]PTE
}

// cowClone returns a CowClone of m's table with a copy of its model.
func (m *modelTable) cowClone(name string) *modelTable {
	return &modelTable{name: name, tab: m.tab.CowClone(), model: maps.Clone(m.model)}
}

// step applies one operation to m, making each choice with pick(n), a
// number in [0, n), and checks its direct result.
func (m *modelTable) step(t *testing.T, pick func(n int) int, gvas []mem.GVA, gpas []mem.GPA) {
	t.Helper()
	gva := gvas[pick(len(gvas))]
	flag := []PTE{FlagWritable, FlagAccessed, FlagDirty, FlagSoftDirty}[pick(4)]
	want, mapped := m.model[gva]
	var errAbsent, errPresent error = ErrNotMapped, nil
	if mapped {
		errAbsent, errPresent = nil, ErrAlreadyMapped
	}
	switch pick(6) {
	case 0:
		gpa := gpas[pick(len(gpas))]
		if err := m.tab.Map(gva, gpa, flag); !errors.Is(err, errPresent) {
			t.Fatalf("%s: Map(%v) = %v, mapped %v", m.name, gva, err, mapped)
		}
		if !mapped {
			m.model[gva] = (flag | FlagPresent).WithGPA(gpa)
		}
	case 1:
		if old, err := m.tab.Unmap(gva); !errors.Is(err, errAbsent) || old != want {
			t.Fatalf("%s: Unmap(%v) = %#x, %v; want %#x, mapped %v", m.name, gva, uint64(old), err, uint64(want), mapped)
		}
		delete(m.model, gva)
	case 2:
		if err := m.tab.SetFlags(gva, flag); !errors.Is(err, errAbsent) {
			t.Fatalf("%s: SetFlags(%v) = %v, mapped %v", m.name, gva, err, mapped)
		}
		if mapped {
			m.model[gva] |= flag
		}
	case 3:
		gpa := gpas[pick(len(gpas))]
		if err := m.tab.Update(gva, func(p PTE) PTE { return p.WithGPA(gpa) }); !errors.Is(err, errAbsent) {
			t.Fatalf("%s: remap(%v -> %v) = %v, mapped %v", m.name, gva, gpa, err, mapped)
		}
		if mapped {
			m.model[gva] = want.WithGPA(gpa)
		}
	case 4:
		off := mem.GVA(pick(int(mem.PageSize)))
		if pte, ok := m.tab.Lookup(gva + off); ok != mapped || pte != want {
			t.Fatalf("%s: Lookup(%v) = %#x, %v; want %#x, %v", m.name, gva+off, uint64(pte), ok, uint64(want), mapped)
		}
	default:
		slot, pte, ok := m.tab.LookupSlot(gva)
		if ok != mapped || pte != want {
			t.Fatalf("%s: LookupSlot(%v) = %#x, %v; want %#x, %v", m.name, gva, uint64(pte), ok, uint64(want), mapped)
		}
		if mapped {
			slot.OrFlags(flag)
			m.model[gva] |= flag
		}
	}
}

// check compares m with its model through Range and Present, and through
// ReverseLookup: the reverse index must answer every GPA in gpas with the
// lowest GVA the model maps to that frame, or none, and so must the scan
// it stands in for (simcache.DisableAll), which walks GVAs in ascending
// order. The scan runs for the mapped frames only: an unmapped frame costs
// it a walk of the whole table, and it is the index under test.
func (m *modelTable) check(t *testing.T, when string, gpas []mem.GPA) {
	t.Helper()
	seen := 0
	m.tab.Range(func(gva mem.GVA, pte PTE) bool {
		if want, ok := m.model[gva]; !ok || pte != want {
			t.Fatalf("%s %s: Range yields %v %#x; model has %#x, %v", m.name, when, gva, uint64(pte), uint64(want), ok)
		}
		seen++
		return true
	})
	if seen != len(m.model) || m.tab.Present() != len(m.model) {
		t.Fatalf("%s %s: Range saw %d pages, Present %d, model %d", m.name, when, seen, m.tab.Present(), len(m.model))
	}
	lowest := make(map[mem.GPA]mem.GVA, len(m.model))
	for gva, pte := range m.model {
		if cur, ok := lowest[pte.GPA()]; !ok || gva < cur {
			lowest[pte.GPA()] = gva
		}
	}
	const off = 0x123
	for _, gpa := range gpas {
		want, wantOK := lowest[gpa]
		if wantOK {
			want += off
		}
		if got, ok := m.tab.ReverseLookup(gpa + off); ok != wantOK || got != want {
			t.Fatalf("%s %s: ReverseLookup(%v) = %v, %v by the index; want %v, %v", m.name, when, gpa+off, got, ok, want, wantOK)
		}
	}
	defer simcache.DisableAll()()
	for gpa, gva := range lowest {
		if got, ok := m.tab.ReverseLookup(gpa + off); !ok || got != gva+off {
			t.Fatalf("%s %s: ReverseLookup(%v) = %v, %v by the scan; want %v", m.name, when, gpa+off, got, ok, gva+off)
		}
	}
}

// TestTableMatchesFlatModel drives random Map/Unmap/SetFlags/remap/Lookup
// and LookupSlot+OrFlags against a source table, then against up to three
// CowClones taken once the source stops changing, and checks every table
// against a flat map after every step, directly, through Range and
// through ReverseLookup by index and by scan. It pins the paging-structure
// cache's coherence (a cached leaf must not outlive its pruning, and a
// writing walk must not mutate a leaf it shares) and the reverse index's
// copy-on-write sharing. FuzzReverseIndex drives the same harness from
// fuzz input.
func TestTableMatchesFlatModel(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 100
	}
	gvas, gpas := modelGVAs(), modelGPAs()
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := &modelTable{name: fmt.Sprintf("seed %d src", seed), tab: New(), model: map[mem.GVA]PTE{}}
		for i := 0; i < 60; i++ {
			src.step(t, rng.Intn, gvas, gpas)
			src.check(t, fmt.Sprintf("after step %d", i), gpas)
		}
		tables := []*modelTable{src}
		for c, n := 0, 1+rng.Intn(3); c < n; c++ {
			tables = append(tables, src.cowClone(fmt.Sprintf("seed %d clone %d", seed, c)))
		}
		for i := 0; i < 120; i++ {
			clone := tables[1+rng.Intn(len(tables)-1)]
			clone.step(t, rng.Intn, gvas, gpas)
			when := fmt.Sprintf("after clone step %d", i)
			for _, m := range tables {
				m.check(t, when, gpas)
			}
		}
	}
}
