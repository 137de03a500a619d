package experiments

import (
	"fmt"
	"sync"

	"repro/internal/guestos"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// The forked-sweep fast path. Grid experiments run the same boot + warm-up
// prefix (boot a machine, spawn the workload process, allocate and touch
// its working set) for every cell that shares a (pages, seed) recipe; only
// the technique under test and the probe shard differ per cell. The pool
// below runs that prefix once per recipe, captures the machine as a
// copy-on-write snapshot, and hands every subsequent cell a Fork instead:
// shared unwritten frames, replayed clock/EPT/VMCS/kernel state, so a cell
// starts exactly where a cold boot would have - at a fraction of the cost
// (the fork-vs-boot bench pins the ratio).
//
// Determinism contract: a forked cell and a cold-booted cell are
// indistinguishable. Both observe the measured phase only - probes attach
// after warm-up in either mode (machine.AttachProbes on the cold path, the
// Fork config on the fast path) - and the fork replays the exact clock the
// capture source had, so every virtual timestamp, counter delta and table
// cell matches byte-for-byte. Options.ColdBoot forces the slow path; the
// fork-determinism CI leg compares the two end to end.

// microKey identifies one boot+warm recipe of the Listing-1 microbenchmark.
type microKey struct {
	pages int
	seed  uint64
}

// microWarm is one pooled warm image: the machine snapshot plus the
// host-side workload binding a fork needs to resume (the warmed process's
// pid and its array region).
type microWarm struct {
	snap   *machine.Snapshot
	pid    guestos.Pid
	region guestos.Region
}

// microEntry is a once-guarded pool slot, so concurrent grid cells with
// the same recipe build the warm image exactly once and everyone else
// forks it.
type microEntry struct {
	once sync.Once
	warm *microWarm
	err  error
}

// microPool caches warm images per recipe for the lifetime of the process;
// snapshots are immutable and copy-on-write, so the pool holds one shared
// frame set per recipe however many cells fork it.
type microPool struct {
	mu      sync.Mutex
	entries map[microKey]*microEntry
}

var micros = microPool{entries: map[microKey]*microEntry{}}

func (mp *microPool) get(pages int, seed uint64) (*microWarm, error) {
	k := microKey{pages: pages, seed: seed}
	mp.mu.Lock()
	e := mp.entries[k]
	if e == nil {
		e = &microEntry{}
		mp.entries[k] = e
	}
	mp.mu.Unlock()
	e.once.Do(func() {
		m, _, w, err := buildMicroWarm(pages, seed)
		if err != nil {
			e.err = err
			return
		}
		snap, err := m.CaptureSnapshot()
		if err != nil {
			e.err = fmt.Errorf("experiments: capturing warm micro snapshot: %w", err)
			return
		}
		e.warm = &microWarm{snap: snap, pid: microPid, region: w.Region()}
	})
	return e.warm, e.err
}

// microPid is the pid Spawn assigns the first process of a fresh kernel;
// buildMicroWarm spawns exactly one.
const microPid = guestos.Pid(1)

// buildMicroWarm runs the cold boot+warm prefix: boot, spawn, eagerly map
// and touch the array. No probes are attached - warm-up is never observed.
func buildMicroWarm(pages int, seed uint64) (*machine.Machine, *machine.Guest, *workloads.ArrayParser, error) {
	m, err := machine.New(machine.Config{})
	if err != nil {
		return nil, nil, nil, err
	}
	g := m.Guest(0)
	proc := g.Kernel.Spawn("micro")
	w := workloads.NewArrayParser(pages)
	if err := w.Setup(workloads.NewRegionAlloc(proc, true), sim.NewRNG(seed)); err != nil {
		return nil, nil, nil, err
	}
	return m, g, w, nil
}

// warmMicro hands a grid cell its warmed machine: guest, workload process
// and bound workload, with p's probes attached post-warm. cold forces the
// boot+warm prefix to rerun; otherwise the pooled snapshot is forked.
func warmMicro(pages int, seed uint64, p machine.Config, cold bool) (*machine.Guest, *guestos.Process, *workloads.ArrayParser, error) {
	if cold {
		m, g, w, err := buildMicroWarm(pages, seed)
		if err != nil {
			return nil, nil, nil, err
		}
		m.AttachProbes(p)
		proc, ok := g.Kernel.Process(microPid)
		if !ok {
			return nil, nil, nil, fmt.Errorf("experiments: warm boot lost pid %d", microPid)
		}
		return g, proc, w, nil
	}
	warm, err := micros.get(pages, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	m, err := warm.snap.Fork(p)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("experiments: forking warm micro snapshot: %w", err)
	}
	g := m.Guest(0)
	proc, ok := g.Kernel.Process(warm.pid)
	if !ok {
		return nil, nil, nil, fmt.Errorf("experiments: fork lost pid %d", warm.pid)
	}
	w := workloads.NewArrayParser(pages)
	w.Adopt(proc, warm.region)
	return g, proc, w, nil
}
