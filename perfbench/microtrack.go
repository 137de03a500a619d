package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"repro/internal/costmodel"
	"repro/internal/cpu"
	"repro/internal/guestos"
	"repro/internal/hypervisor"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tracking"
	"repro/internal/workloads"
)

var microTrack = &workload{
	name:  "micro-track",
	cells: len(microSizesMB) * len(machine.AllTechniques()),
	setup: setupMicroTrack,
}

// microSizesMB are Fig. 4's default memory sizes; microPasses is the number
// of array passes per cell, each followed by a collection.
var microSizesMB = []int{1, 10, 50, 100, 250}

const microPasses = 3

// microWarm is one size's warm image, captured in set-up and forked by
// every cell of that size.
type microWarm struct {
	pages  int
	snap   *machine.Snapshot
	pid    guestos.Pid
	region guestos.Region
}

// dirtySet summarises one collection: how many pages it reported and a
// digest of their sorted addresses.
type dirtySet struct {
	Pages  int    `json:"pages"`
	SHA256 string `json:"sha256"`
}

// microOutput is one cell's simulated output.
type microOutput struct {
	VirtualNS   int64                 `json:"virtual_ns"` // Init through Close
	InitNS      int64                 `json:"init_ns"`
	CollectNS   int64                 `json:"collect_ns"`
	CloseNS     int64                 `json:"close_ns"`
	Collections int                   `json:"collections"`
	Reported    int64                 `json:"reported"`
	Fig3        *fig3Breakdown        `json:"fig3,omitempty"` // PML techniques only
	Dirty       [microPasses]dirtySet `json:"dirty"`
}

// fig3Breakdown is the last collection's SPML/EPML phase split (Fig. 3).
type fig3Breakdown struct {
	ReverseMapNS int64 `json:"reverse_map_ns"`
	PTWalkNS     int64 `json:"pt_walk_ns"`
	RingCopyNS   int64 `json:"ring_copy_ns"`
	Entries      int   `json:"entries"`
}

func setupMicroTrack(seed uint64, rec *recorder) (func() ([]cellResult, int64), error) {
	rng := sim.NewRNG(seed)
	warm := make([]microWarm, len(microSizesMB))
	for i, mb := range microSizesMB {
		rec.setCell(fmt.Sprintf("setup/%dMB", mb))
		w, err := warmMicro(mb<<8, rng, rec)
		if err != nil {
			return nil, err
		}
		warm[i] = w
	}
	// The seed orders the cells, so a cell's output must not depend on the
	// cells that ran before it.
	type cellKey struct {
		size int
		kind costmodel.Technique
	}
	var order []cellKey
	for i := range warm {
		for _, kind := range machine.AllTechniques() {
			order = append(order, cellKey{i, kind})
		}
	}
	perm := rng.Perm(len(order))

	timed := func() ([]cellResult, int64) {
		cells := make([]cellResult, len(order))
		var runOps int64
		for _, j := range perm {
			k := order[j]
			c := &cells[j]
			c.ID = fmt.Sprintf("%dMB/%s", microSizesMB[k.size], techName(k.kind))
			rec.setCell(c.ID)
			ops, err := microCell(c, &warm[k.size], k.kind, rec)
			runOps += ops
			c.fail(err)
		}
		checkOracleExact(cells)
		return cells, runOps
	}
	return timed, nil
}

// warmMicro boots a machine, warms an array of the given pages and
// captures it. The rng feeds the workload's set-up like every other
// workload's; the array parser itself writes fixed values.
func warmMicro(pages int, rng *sim.RNG, rec *recorder) (microWarm, error) {
	var m *machine.Machine
	if err := rec.do("machine.boot", func() (err error) {
		m, err = machine.New(machine.Config{})
		return err
	}); err != nil {
		return microWarm{}, err
	}
	proc := m.Guest(0).Kernel.Spawn("micro")
	w := workloads.NewArrayParser(pages)
	if err := rec.do("workloads.setup", func() error {
		return w.Setup(workloads.NewRegionAlloc(proc, true), rng)
	}); err != nil {
		return microWarm{}, err
	}
	var snap *machine.Snapshot
	if err := rec.do("machine.capture", func() (err error) {
		snap, err = m.CaptureSnapshot()
		return err
	}); err != nil {
		return microWarm{}, err
	}
	return microWarm{pages: pages, snap: snap, pid: proc.Pid, region: w.Region()}, nil
}

// microCell forks the warm image and tracks microPasses array passes with
// one technique. It returns the simulated memory ops inside the passes.
func microCell(c *cellResult, warm *microWarm, kind costmodel.Technique, rec *recorder) (int64, error) {
	var m *machine.Machine
	if err := rec.do("machine.fork", func() (err error) {
		m, err = warm.snap.Fork(machine.Config{})
		return err
	}); err != nil {
		return 0, err
	}
	g := m.Guest(0)
	proc, ok := g.Kernel.Process(warm.pid)
	if !ok {
		return 0, fmt.Errorf("fork lost pid %d", warm.pid)
	}
	w := workloads.NewArrayParser(warm.pages)
	w.Adopt(proc, warm.region)
	before := g.Kernel.VCPU.Counters.Snapshot()
	t, err := g.NewTechnique(kind, proc)
	if err != nil {
		return 0, err
	}
	tech := newTimedTechnique(t, rec)

	var out microOutput
	var runOps int64
	start := g.Kernel.Clock.Nanos()
	if err := tech.Init(); err != nil {
		return 0, err
	}
	for pass := 0; pass < microPasses; pass++ {
		ops, err := runWorkload(g, w.Run, rec)
		runOps += ops
		if err != nil {
			return runOps, err
		}
		dirty, err := tech.Collect()
		if err != nil {
			return runOps, err
		}
		out.Dirty[pass] = digestPages(dirty)
	}
	if err := tech.Close(); err != nil {
		return runOps, err
	}
	out.VirtualNS = g.Kernel.Clock.Nanos() - start
	st := tech.Stats()
	out.InitNS, out.CollectNS, out.CloseNS = int64(st.InitTime), int64(st.CollectTime), int64(st.CloseTime)
	out.Collections, out.Reported = st.Collections, st.Reported
	if pml, ok := t.(*tracking.PMLTechnique); ok {
		bd := pml.LastBreakdown()
		out.Fig3 = &fig3Breakdown{ReverseMapNS: int64(bd.ReverseMap), PTWalkNS: int64(bd.PTWalk),
			RingCopyNS: int64(bd.RingCopy), Entries: bd.Entries}
	}
	c.setOutput(out)
	c.Counts = simCounts(before, g.Kernel.VCPU.Counters.Snapshot())
	c.Counts["tracking."+techName(kind)+".pages"] = st.Reported
	return runOps, nil
}

// checkOracleExact fails every cell whose dirty sets differ from the
// oracle's at the same size: tracking must be exact whatever the seed.
func checkOracleExact(cells []cellResult) {
	oracle := map[string]microOutput{}
	outs := make([]microOutput, len(cells))
	for i := range cells {
		if cells[i].Err != "" || json.Unmarshal(cells[i].Output, &outs[i]) != nil {
			continue
		}
		if size, tech, _ := strings.Cut(cells[i].ID, "/"); tech == techName(costmodel.Oracle) {
			oracle[size] = outs[i]
		}
	}
	for i := range cells {
		c := &cells[i]
		if c.Err != "" {
			continue
		}
		size, _, _ := strings.Cut(c.ID, "/")
		o, ok := oracle[size]
		if !ok {
			c.fail(fmt.Errorf("no oracle cell at %s", size))
			continue
		}
		if outs[i].Dirty != o.Dirty {
			c.fail(fmt.Errorf("dirty sets %v differ from the oracle's %v", outs[i].Dirty, o.Dirty))
		}
	}
}

// digestPages sorts a collection's addresses and hashes them.
func digestPages(pages []mem.GVA) dirtySet {
	sorted := slices.Clone(pages)
	slices.Sort(sorted)
	h := sha256.New()
	var b [8]byte
	for _, p := range sorted {
		binary.LittleEndian.PutUint64(b[:], uint64(p))
		h.Write(b[:])
	}
	return dirtySet{Pages: len(sorted), SHA256: hex.EncodeToString(h.Sum(nil))}
}

// runWorkload runs one workload pass inside a workloads.run span and
// returns the simulated memory ops it performed.
func runWorkload(g *machine.Guest, run func() error, rec *recorder) (int64, error) {
	ctr := &g.Kernel.VCPU.Counters
	ops0 := ctr.Get(cpu.CtrReadOps) + ctr.Get(cpu.CtrWriteOps)
	err := rec.do("workloads.run", run)
	return ctr.Get(cpu.CtrReadOps) + ctr.Get(cpu.CtrWriteOps) - ops0, err
}

// simCounters maps each exact simulated count the benchmark reports to
// the vCPU counter that holds it. A host-only change must leave every one
// of them unchanged.
var simCounters = []struct{ metric, counter string }{
	{"cpu.write_ops", cpu.CtrWriteOps},
	{"cpu.read_ops", cpu.CtrReadOps},
	{"cpu.vmexits", cpu.CtrVMExits},
	{"cpu.pml_logs", cpu.CtrPMLLogs},
	{"cpu.epml_logs", cpu.CtrEPMLLogs},
	{"cpu.pml_full_exits", cpu.CtrPMLFullExits},
	{"guestos.demand_faults", guestos.CtrDemandFaults},
	{"guestos.softdirty_faults", guestos.CtrSoftDirtyFaults},
	{"guestos.ufd_faults", guestos.CtrUfdFaults},
	{"guestos.pagemap_pages_walked", guestos.CtrPagemapPages},
	{"hypervisor.ring_entries_copied", hypervisor.CtrRingCopied},
}

// simCounts returns the change of every simCounters count.
func simCounts(before, after map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(simCounters)+1)
	for _, sc := range simCounters {
		out[sc.metric] = after[sc.counter] - before[sc.counter]
	}
	return out
}

// techName is a technique's lower-case name in metric and cell names.
func techName(k costmodel.Technique) string {
	switch k {
	case costmodel.Oracle:
		return "oracle"
	case costmodel.Proc:
		return "proc"
	case costmodel.Ufd:
		return "ufd"
	case costmodel.SPML:
		return "spml"
	case costmodel.EPML:
		return "epml"
	}
	return k.String()
}
