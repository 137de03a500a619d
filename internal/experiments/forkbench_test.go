package experiments

import (
	"runtime"
	"testing"

	"repro/internal/workloads"
)

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
// Bytes are gated the same way: a fork's own, and the first pass's per
// page touched.
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
	forkOnly := func(fork func() (*workloads.ArrayParser, error)) func() error {
		return func() error { _, err := fork(); return err }
	}
	bootAllocs, forkAllocs, bigForkAllocs := allocs(3, bootWarm), allocs(15, forkOnly(fork)), allocs(15, forkOnly(bigFork))
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

	// Bytes, as exact as the allocation counts: what a fork allocates, and
	// what the first pass over the fork allocates per page it touches. A
	// fork's frames are a directory of 2 MiB chunks, not a pointer per
	// page, and a first touch copies a chunk of frames and their write
	// buffers at once (at 64,000 pages: 855,056 B and 81.8 B/page, where a
	// pointer per page and a Frame built per touch took 1,370,168 B and
	// 101.4 B/page; 87.9 and 109.5 B/page at 6,400).
	forkBytes, passBytes := forkPassBytes(t, fork, 5)
	bigForkBytes, bigPassBytes := forkPassBytes(t, bigFork, 3)
	passPerPage, bigPassPerPage := passBytes/pages, bigPassBytes/(10*pages)
	t.Logf("bytes: fork %.0f (%.0f at %d pages), first pass %.1f B/page (%.1f at %d pages)",
		forkBytes, bigForkBytes, 10*pages, passPerPage, bigPassPerPage, 10*pages)
	if bigForkBytes > 1_000_000 {
		t.Errorf("fork of %d pages allocates %.0f bytes, want at most 1,000,000", 10*pages, bigForkBytes)
	}
	if passPerPage > 96 || bigPassPerPage > 90 {
		t.Errorf("first pass after a fork allocates %.1f B/page (%.1f at %d pages), want at most 96 (90)",
			passPerPage, bigPassPerPage, 10*pages)
	}
}

// forkPassBytes reports the mean heap bytes one fork allocates and the
// mean the first workload pass over that fork allocates, over runs forks.
func forkPassBytes(t testing.TB, fork func() (*workloads.ArrayParser, error), runs int) (forkB, passB float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1, m2 runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&m0)
		w, err := fork()
		runtime.ReadMemStats(&m1)
		if err == nil {
			err = w.Run()
		}
		runtime.ReadMemStats(&m2)
		if err != nil {
			t.Fatal(err)
		}
		forkB += float64(m1.TotalAlloc - m0.TotalAlloc)
		passB += float64(m2.TotalAlloc - m1.TotalAlloc)
	}
	return forkB / float64(runs), passB / float64(runs)
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

// BenchmarkForkFirstTouch measures a fork's first touch: fork a warm
// 64,000-page micro image and run one ArrayParser pass, which writes one
// word into every page of the fork. ns/page and B/page are per page
// touched, fork included.
func BenchmarkForkFirstTouch(b *testing.B) {
	const pages = 64000
	_, fork, err := forkBenchOps(pages, DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := fork()
		if err == nil {
			err = w.Run()
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pages), "ns/page")
	b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/float64(b.N*pages), "B/page")
}
