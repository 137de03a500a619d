package mem

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestPageSet(t *testing.T) {
	const chunk = 1 << pageSetChunkShift
	far := GVA(1) << 46
	var s PageSet
	adds := []struct {
		gva  GVA
		want bool
	}{
		{0x5000, true},
		{chunk - PageSize, true}, // last page of the first chunk
		{chunk, true},            // first page of the second
		{0x5000, false},          // duplicate
		{0x5008, false},          // same page, not its base
		{far + 0x5000, true},     // 2^46 apart: same bit, other chunk
		{chunk, false},
		{0x6000, true},
	}
	for _, a := range adds {
		if got := s.Add(a.gva); got != a.want {
			t.Errorf("Add(%v) = %v, want %v", a.gva, got, a.want)
		}
	}
	want := []GVA{0x5000, chunk - PageSize, chunk, far + 0x5000, 0x6000}
	if !slices.Equal(s.Pages(), want) {
		t.Errorf("Pages = %v, want %v", s.Pages(), want)
	}

	s.Reset()
	if len(s.Pages()) != 0 {
		t.Errorf("Pages after Reset = %v", s.Pages())
	}
	for _, gva := range []GVA{far + 0x5000, 0x5000, far + 0x5000} {
		s.Add(gva)
	}
	if want := []GVA{far + 0x5000, 0x5000}; !slices.Equal(s.Pages(), want) {
		t.Errorf("Pages after reuse = %v, want %v", s.Pages(), want)
	}
}

// TestPageSetQuick checks random add/reset scripts over pages on both sides
// of chunk boundaries against a map-and-slice model.
func TestPageSetQuick(t *testing.T) {
	prop := func(ops []uint16) bool {
		var s PageSet
		seen := map[GVA]bool{}
		var order []GVA
		for _, op := range ops {
			if op%31 == 0 {
				s.Reset()
				seen, order = map[GVA]bool{}, nil
				continue
			}
			// Pages near the boundaries of the first three chunks, some in
			// the upper half of a 47-bit address space.
			gva := GVA(op%3)<<pageSetChunkShift + GVA(op>>2&15)*PageSize - 8*PageSize
			if op&2 != 0 {
				gva += 1 << 46
			}
			if s.Add(gva) != !seen[gva] {
				return false
			}
			if !seen[gva] {
				seen[gva] = true
				order = append(order, gva)
			}
		}
		return slices.Equal(s.Pages(), order) || len(order) == 0 && len(s.Pages()) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
