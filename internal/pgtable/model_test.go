package pgtable

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mem"
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

// modelTable is a Table under test and the flat map it must agree with.
type modelTable struct {
	name  string
	tab   *Table
	model map[mem.GVA]PTE
}

// step applies one random operation to m and checks its direct result.
func (m *modelTable) step(t *testing.T, rng *rand.Rand, gvas []mem.GVA) {
	t.Helper()
	gva := gvas[rng.Intn(len(gvas))]
	flag := []PTE{FlagWritable, FlagAccessed, FlagDirty, FlagSoftDirty}[rng.Intn(4)]
	want, mapped := m.model[gva]
	var errAbsent, errPresent error = ErrNotMapped, nil
	if mapped {
		errAbsent, errPresent = nil, ErrAlreadyMapped
	}
	switch rng.Intn(5) {
	case 0:
		gpa := mem.GPA(1+rng.Intn(64)) * mem.PageSize
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
		off := mem.GVA(rng.Intn(int(mem.PageSize)))
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

// check compares m with its model through Range and Present.
func (m *modelTable) check(t *testing.T, when string) {
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
}

// TestTableMatchesFlatModel drives random Map/Unmap/SetFlags/Lookup and
// LookupSlot+OrFlags against a source table, then against up to three
// CowClones taken once the source stops changing, and checks every table
// against a flat map after every step, directly and through Range. It pins
// the paging-structure cache's coherence: a cached leaf must not outlive
// its pruning, and a writing walk must not mutate a leaf it shares.
func TestTableMatchesFlatModel(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 100
	}
	gvas := modelGVAs()
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := &modelTable{name: fmt.Sprintf("seed %d src", seed), tab: New(), model: map[mem.GVA]PTE{}}
		for i := 0; i < 60; i++ {
			src.step(t, rng, gvas)
			src.check(t, fmt.Sprintf("after step %d", i))
		}
		tables := []*modelTable{src}
		for c, n := 0, 1+rng.Intn(3); c < n; c++ {
			model := make(map[mem.GVA]PTE, len(src.model))
			for k, v := range src.model {
				model[k] = v
			}
			tables = append(tables, &modelTable{name: fmt.Sprintf("seed %d clone %d", seed, c),
				tab: src.tab.CowClone(), model: model})
		}
		for i := 0; i < 120; i++ {
			clone := tables[1+rng.Intn(len(tables)-1)]
			clone.step(t, rng, gvas)
			for _, m := range tables {
				m.check(t, fmt.Sprintf("after clone step %d", i))
			}
		}
	}
}
