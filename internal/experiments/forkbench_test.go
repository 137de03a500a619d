package experiments

import "testing"

// TestForkCheaperThanBoot gates the fast path's economics: forking the
// pooled snapshot must be at least 10x cheaper in host wall time than
// re-running the boot+warm prefix at a mid-size recipe (25 MiB working
// set). The ratio grows with the working set - CoW sharing amortizes the
// frame copies a cold boot pays for eagerly - so gating a mid-size recipe
// is the conservative check.
//
// A fork takes tens of microseconds, so on a loaded host a best-of-3
// timing measures scheduler noise; best-of-15 measures the fork. Beside
// the timing sit exact, host-independent allocation gates: a fork
// allocates a fixed handful of objects, the same at ten times the working
// set, and boot+warm allocates no heap object per page (at most one per
// ten pages; the slabs and the page table's interior are what remain).
func TestForkCheaperThanBoot(t *testing.T) {
	const pages = 25 << 20 >> 12 // 25 MiB of 4 KiB pages
	fb, err := MeasureForkSpeed(pages, 17, 15)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("boot+warm %dns, fork %dns, %.1fx (%d pages)",
		fb.BootWarmNS, fb.ForkNS, fb.Speedup, fb.Pages)
	if fb.Speedup < 10 {
		t.Errorf("fork is only %.1fx cheaper than boot+warm, want >=10x", fb.Speedup)
	}

	bootWarm, fork, err := forkBenchOps(pages, 17)
	if err != nil {
		t.Fatal(err)
	}
	_, bigFork, err := forkBenchOps(10*pages, 17)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(runs int, f func() error) float64 {
		return testing.AllocsPerRun(runs, func() {
			if err := f(); err != nil {
				t.Fatal(err)
			}
		})
	}
	bootAllocs, forkAllocs, bigForkAllocs := allocs(3, bootWarm), allocs(15, fork), allocs(15, bigFork)
	t.Logf("allocations: boot+warm %.0f, fork %.0f (%.0f at %d pages)", bootAllocs, forkAllocs, bigForkAllocs, 10*pages)
	// 129 is what the gate used to allow: 1/100 of boot+warm's 12,949
	// allocations while boot+warm still allocated per page.
	if forkAllocs > 129 {
		t.Errorf("fork allocates %.0f times, want at most 129", forkAllocs)
	}
	if bigForkAllocs != forkAllocs {
		t.Errorf("fork allocates %.0f times at %d pages but %.0f at %d: a fork must not allocate per page",
			bigForkAllocs, 10*pages, forkAllocs, pages)
	}
	if bootAllocs > pages/10 {
		t.Errorf("boot+warm allocates %.0f times for %d pages, want at most %d", bootAllocs, pages, pages/10)
	}
}

// BenchmarkBootWarm measures the host cost of building a warm image at
// each of Fig. 4's default sizes (1, 10, 50, 100 and 250 MB): the
// boot+warm prefix TestForkCheaperThanBoot times, then a capture, as
// perfbench's micro-track set-up does. Every page is mapped and
// first-touched once, so allocs/op shows whether that costs a heap object
// per page.
func BenchmarkBootWarm(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, mb := range (Options{}).microSizes() {
			m, _, _, err := buildMicroWarm(mb<<8, DefaultSeed)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.CaptureSnapshot(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
