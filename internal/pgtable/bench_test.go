package pgtable

import (
	"testing"

	"repro/internal/mem"
)

var sinkGVA mem.GVA

// BenchmarkReverseLookup resolves logged GPAs back to GVAs over a 250 MB
// address space, the operation SPML's collection performs per entry (the
// paper's M17). The table is mapped the way the guest maps an array:
// consecutive pages onto the frames the allocator hands out in order.
func BenchmarkReverseLookup(b *testing.B) {
	const pages = 250 << 8
	tab := New()
	for i := 0; i < pages; i++ {
		gva := mem.GVA(0x400000 + uint64(i)*mem.PageSize)
		if err := tab.Map(gva, mem.GPA(i+1)*mem.PageSize, FlagWritable); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gva, ok := tab.ReverseLookup(mem.GPA(i%pages+1)*mem.PageSize + 8)
		if !ok {
			b.Fatal("mapped frame not found")
		}
		sinkGVA = gva
	}
}
