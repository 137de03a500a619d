package pgtable

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/simcache"
)

// TestUnmapPrunesEmptyNodes is the regression test for the interior-node
// leak: Unmap must detach radix nodes whose last live entry went away, so
// a churning address space returns to the root-only state.
func TestUnmapPrunesEmptyNodes(t *testing.T) {
	pt := New()
	if n := pt.Nodes(); n != 1 {
		t.Fatalf("fresh table has %d nodes, want 1 (root)", n)
	}
	// Spread mappings across distinct subtrees at every level: large
	// strides force separate L2/L3 interiors per mapping.
	var gvas []mem.GVA
	for i := 0; i < 32; i++ {
		gva := mem.GVA(uint64(i) << 30) // 1 GiB stride: distinct L2+ paths
		gvas = append(gvas, gva)
		if err := pt.Map(gva, mem.GPA(0x10000+uint64(i)*mem.PageSize), FlagWritable); err != nil {
			t.Fatal(err)
		}
	}
	grown := pt.Nodes()
	if grown <= 1 {
		t.Fatalf("mapping did not allocate interior nodes (Nodes=%d)", grown)
	}
	for _, gva := range gvas {
		if _, err := pt.Unmap(gva); err != nil {
			t.Fatal(err)
		}
	}
	if n := pt.Nodes(); n != 1 {
		t.Errorf("after unmapping everything Nodes = %d, want 1 (leaked %d interior nodes)",
			n, n-1)
	}
	if pt.Present() != 0 {
		t.Errorf("Present = %d after full unmap", pt.Present())
	}
}

// TestMapUnmapChurnReclaimsNodes drives repeated map/unmap rounds (a GC or
// migration-round pattern) and asserts node count stays flat instead of
// growing round over round.
func TestMapUnmapChurnReclaimsNodes(t *testing.T) {
	pt := New()
	var peak int
	for round := 0; round < 20; round++ {
		for i := 0; i < 64; i++ {
			gva := mem.GVA(uint64(i)<<22 + uint64(round)<<40)
			if err := pt.Map(gva, mem.GPA(0x100000+uint64(i)*mem.PageSize), FlagWritable); err != nil {
				t.Fatal(err)
			}
		}
		if n := pt.Nodes(); round == 0 {
			peak = n
		} else if n > peak {
			t.Fatalf("round %d: Nodes grew to %d (round-0 peak %d) - interior leak", round, n, peak)
		}
		for i := 0; i < 64; i++ {
			gva := mem.GVA(uint64(i)<<22 + uint64(round)<<40)
			if _, err := pt.Unmap(gva); err != nil {
				t.Fatal(err)
			}
		}
		if n := pt.Nodes(); n != 1 {
			t.Fatalf("round %d: Nodes = %d after unmap, want 1", round, n)
		}
	}
}

// TestReverseLookupIndexMatchesScan cross-checks the incremental reverse
// index against the full-scan fallback over a table with churn, remaps and
// aliased frames: every GPA must get the same answer both ways.
func TestReverseLookupIndexMatchesScan(t *testing.T) {
	pt := New()
	var gpas []mem.GPA
	// Plain mappings.
	for i := 0; i < 64; i++ {
		gva := mem.GVA(0x400000 + uint64(i)*mem.PageSize)
		gpa := mem.GPA(0x800000 + uint64(i)*mem.PageSize)
		if err := pt.Map(gva, gpa, FlagWritable); err != nil {
			t.Fatal(err)
		}
		gpas = append(gpas, gpa)
	}
	// Churn: unmap odd pages, remap some of their frames elsewhere.
	for i := 1; i < 64; i += 2 {
		if _, err := pt.Unmap(mem.GVA(0x400000 + uint64(i)*mem.PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 32; i += 2 {
		gpa := mem.GPA(0x800000 + uint64(i)*mem.PageSize)
		if err := pt.Map(mem.GVA(0x4000000+uint64(i)*mem.PageSize), gpa, FlagWritable); err != nil {
			t.Fatal(err)
		}
	}
	// Aliased frame: two GVAs mapping one GPA, then drop one mapper.
	alias := mem.GPA(0x10000000)
	if err := pt.Map(0x7000000, alias, FlagWritable); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(0x7100000, alias, FlagWritable); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Unmap(0x7000000); err != nil {
		t.Fatal(err)
	}
	gpas = append(gpas, alias, mem.GPA(0xDEAD000) /* never mapped */)

	for _, gpa := range gpas {
		idxGVA, idxOK := pt.ReverseLookup(gpa + 0x123) // offset must survive
		restore := simcache.DisableAll()
		scanGVA, scanOK := pt.ReverseLookup(gpa + 0x123)
		restore()
		if idxOK != scanOK || idxGVA != scanGVA {
			t.Errorf("ReverseLookup(%v): index (%v,%v) != scan (%v,%v)",
				gpa, idxGVA, idxOK, scanGVA, scanOK)
		}
	}
}
