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
// the timing sits an exact, host-independent gate: a fork allocates at
// most 1/100 of what the boot+warm prefix allocates.
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
	p := fb.Perf()
	if p.ID != "fork-vs-boot" || p.WallNS != fb.ForkNS || p.UncachedWallNS != fb.BootWarmNS {
		t.Errorf("Perf() mismatch: %+v vs %+v", p, fb)
	}

	bootWarm, fork, err := forkBenchOps(pages, 17)
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
	bootAllocs, forkAllocs := allocs(3, bootWarm), allocs(15, fork)
	t.Logf("allocations: boot+warm %.0f, fork %.0f", bootAllocs, forkAllocs)
	if forkAllocs*100 > bootAllocs {
		t.Errorf("fork allocates %.0f times, more than 1/100 of boot+warm's %.0f", forkAllocs, bootAllocs)
	}
}
