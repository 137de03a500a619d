package pgtable

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/mem"
)

// FuzzReverseIndex drives TestTableMatchesFlatModel's harness from the
// fuzz input instead of a seeded PRNG. Each input byte makes one choice:
// whether the next step is a CowClone, which table it acts on, and then
// step's own choices, so the input steers Map, Unmap, remaps, flag-only
// updates and lookups over dense, aliased and far frames on any table of
// a copy-on-write clone tree. After every step every table is checked
// against its model, ReverseLookup through the index and the scan
// included. A CowClone freezes the table it clones, as a captured
// snapshot's table is frozen, so that sources stay immutable for their
// clones' lifetimes; every other step picks a live table.
func FuzzReverseIndex(f *testing.F) {
	// A step is [not a clone (nonzero mod 8), live table, GVA, flag,
	// operation, GPA or offset]; a clone is [0, table]. Operations: 0 map,
	// 1 unmap, 2 set a flag, 3 remap, 4 lookup, 5 flag through a slot.
	// GPA choice 64 is the frame above revDenseFrames.
	f.Add([]byte{1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1})                        // alias, clone, unmap in the clone
	f.Add([]byte{1, 0, 0, 0, 0, 64, 1, 0, 2, 0, 0, 5, 0, 0, 1, 0, 0, 0, 3, 3, 1, 0, 2, 0, 3, 64}) // far frame, clone, remaps
	f.Add([]byte{1, 0, 3, 0, 0, 10, 0, 0, 0, 0, 1, 0, 3, 1, 2, 1, 1, 3, 2, 5,
		1, 1, 3, 3, 3, 11, 0, 1, 1, 1, 3, 0, 1}) // flag updates and a remap across a clone of a clone
	gvas, gpas := modelGVAs(), modelGPAs()
	const maxTables = 6

	f.Fuzz(func(t *testing.T, data []byte) {
		pick := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		}
		src := &modelTable{name: "src", tab: New(), model: map[mem.GVA]PTE{}}
		tables, live := []*modelTable{src}, []*modelTable{src}
		for i := 0; len(data) > 0; i++ {
			if pick(8) == 0 && len(tables) < maxTables {
				frozen := tables[pick(len(tables))]
				live = slices.DeleteFunc(live, func(m *modelTable) bool { return m == frozen })
				clone := frozen.cowClone(fmt.Sprintf("clone %d", len(tables)))
				tables, live = append(tables, clone), append(live, clone)
			} else {
				live[pick(len(live))].step(t, pick, gvas, gpas)
			}
			when := fmt.Sprintf("after step %d", i)
			for _, m := range tables {
				m.check(t, when, gpas)
			}
		}
	})
}
