package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/machine"
	"repro/internal/workloads"
)

// ForkBench is the measured host cost of entering a warmed micro machine
// two ways: re-running the boot+warm-up prefix from scratch versus forking
// a copy-on-write snapshot of it. The speedup is the forked-sweep fast
// path's whole value proposition, so TestForkCheaperThanBoot gates it.
type ForkBench struct {
	Pages      int
	BootWarmNS int64 // best-of-iters cold boot + spawn + map + touch
	ForkNS     int64 // best-of-iters snapshot fork + workload rebind
	Speedup    float64
}

// MeasureForkSpeed measures, best-of-iters, the host wall time of the
// boot+warm prefix for a pages-sized micro recipe versus forking a
// captured snapshot of the same prefix (see forkBenchOps).
func MeasureForkSpeed(pages int, seed uint64, iters int) (ForkBench, error) {
	if iters <= 0 {
		iters = 5
	}
	fb := ForkBench{Pages: pages}
	bootWarm, fork, err := forkBenchOps(pages, seed)
	if err != nil {
		return fb, err
	}
	best := func(f func() error) (int64, error) {
		bestNS := int64(math.MaxInt64)
		for i := 0; i < iters; i++ {
			t0 := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			if d := time.Since(t0).Nanoseconds(); d < bestNS {
				bestNS = d
			}
		}
		return bestNS, nil
	}
	if fb.BootWarmNS, err = best(bootWarm); err != nil {
		return fb, err
	}
	if fb.ForkNS, err = best(func() error { _, err := fork(); return err }); err != nil {
		return fb, err
	}
	if fb.ForkNS > 0 {
		fb.Speedup = math.Round(float64(fb.BootWarmNS)/float64(fb.ForkNS)*100) / 100
	}
	return fb, nil
}

// forkBenchOps returns the two ways into a warmed pages-sized micro
// machine that MeasureForkSpeed compares: rerunning the boot+warm prefix,
// and forking a snapshot of it captured once up front. Each fork is a
// complete, runnable machine (the fork-determinism suite pins that it
// behaves identically), and fork returns its workload, ready to run.
func forkBenchOps(pages int, seed uint64) (bootWarm func() error, fork func() (*workloads.ArrayParser, error), err error) {
	m, _, w, err := buildMicroWarm(pages, seed)
	if err != nil {
		return nil, nil, err
	}
	snap, err := m.CaptureSnapshot()
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: capturing the fork benchmark's snapshot: %w", err)
	}
	region := w.Region()
	bootWarm = func() error {
		_, _, _, err := buildMicroWarm(pages, seed)
		return err
	}
	fork = func() (*workloads.ArrayParser, error) {
		fm, err := snap.Fork(machine.Config{})
		if err != nil {
			return nil, err
		}
		proc, ok := fm.Guest(0).Kernel.Process(microPid)
		if !ok {
			return nil, fmt.Errorf("experiments: fork lost pid %d", microPid)
		}
		w := workloads.NewArrayParser(pages)
		w.Adopt(proc, region)
		return w, nil
	}
	return bootWarm, fork, nil
}
