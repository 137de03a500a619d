package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/costmodel"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/tracking"
)

// CannedFaultSpec is one named fault mix of the robustness matrix. Each
// spec names the preferred rung and working-set shape that actually reaches
// its fault points: IPI faults need the 512-entry guest buffer to overflow
// (a >512-page full sweep under EPML), PML-buffer faults need the
// hypervisor PML path (SPML).
type CannedFaultSpec struct {
	Name string
	Spec string
	// Tech is the preferred (top-of-ladder) rung for this cell.
	Tech costmodel.Technique
	// Pages sizes the tracked region (0 = the 128-page default).
	Pages int
	// FullSweep writes every page each epoch instead of a random subset,
	// guaranteeing the dirty set outgrows the guest PML buffer.
	FullSweep bool
}

// CannedFaultSpecs are the fault mixes the fault-matrix experiment (and the
// CI smoke job) exercises: each stresses a different trust boundary of the
// stack, from lost posted IPIs to hosts missing every kernel feature but
// /proc.
var CannedFaultSpecs = []CannedFaultSpec{
	{Name: "none", Spec: "", Tech: costmodel.EPML},
	{Name: "ipi-storm", Spec: "ipi-drop:0.6,ipi-dup:0.3",
		Tech: costmodel.EPML, Pages: 1536, FullSweep: true},
	{Name: "hc-flaky", Spec: "hc-enable-fail:0.3,hc-disable-fail:0.3,hc-drain-fail:0.5,hc-init-fail:0.5",
		Tech: costmodel.SPML},
	{Name: "lossy-pml", Spec: "pml-entry-loss:0.2,pml-full-exit:0.01", Tech: costmodel.SPML},
	{Name: "no-epml", Spec: "epml-absent", Tech: costmodel.EPML},
	{Name: "legacy-host", Spec: "epml-absent,spml-absent", Tech: costmodel.EPML},
	{Name: "userspace-only", Spec: "epml-absent,spml-absent,ufd-absent", Tech: costmodel.EPML},
	{Name: "vmcs-flaky", Spec: "vmwrite-fail:0.2,collect-stall:0.3", Tech: costmodel.EPML},
	{Name: "kitchen-sink", Spec: "ipi-drop:0.3,ipi-dup:0.2,pml-entry-loss:0.2,pml-full-exit:0.01," +
		"hc-enable-fail:0.2,hc-disable-fail:0.2,hc-drain-fail:0.3,vmwrite-fail:0.1,collect-stall:0.2",
		Tech: costmodel.EPML, Pages: 640, FullSweep: true},
}

// faultMatrixEpochs is how many write-then-collect epochs each cell runs.
const faultMatrixEpochs = 6

// faultCell is one (fault spec) row of the matrix.
type faultCell struct {
	name     string
	spec     string
	rung     costmodel.Technique
	reported int64
	faults   uint64
	fired    string // per-point firing counts, rendered
	rec      tracking.Recovery
	exact    bool
}

// runFaultCell drives the Resilient tracker under one fault spec and checks
// every epoch's report against an independent write-set oracle, both
// directions (nothing missing, nothing extra).
func runFaultCell(c CannedFaultSpec, seed uint64, p machine.Config) (faultCell, error) {
	cell := faultCell{name: c.Name, spec: c.Spec, exact: true}
	parsed, err := faults.ParseSpec(c.Spec)
	if err != nil {
		return cell, err
	}
	inj := faults.New(parsed, seed^0xFA177)
	p.Faults = inj
	m, err := machine.New(p)
	if err != nil {
		return cell, err
	}
	g := m.Guest(0)
	proc := g.Kernel.Spawn("victim")
	pages := uint64(c.Pages)
	if pages == 0 {
		pages = 128
	}
	region, err := proc.Mmap(pages*mem.PageSize, true)
	if err != nil {
		return cell, err
	}
	tech := g.NewResilient(c.Tech, proc)
	if err := tech.Init(); err != nil {
		return cell, fmt.Errorf("fault-matrix %s: Init: %w", c.Name, err)
	}
	cell.rung = tech.Active()
	ver := tracking.NewVerifier(proc)
	defer ver.Stop()

	rng := sim.NewRNG(seed)
	for epoch := 0; epoch < faultMatrixEpochs; epoch++ {
		ver.Reset()
		var targets []uint64
		if c.FullSweep {
			targets = make([]uint64, pages)
			for i := range targets {
				targets[i] = uint64(i)
			}
		} else {
			for i := 16 + int(rng.Uint64n(32)); i > 0; i-- {
				targets = append(targets, rng.Uint64n(pages))
			}
		}
		for _, page := range targets {
			off := rng.Uint64n(mem.PageSize/8) * 8
			gva := region.Start.Add(page*mem.PageSize + off)
			if err := proc.WriteU64(gva, rng.Uint64()); err != nil {
				return cell, fmt.Errorf("fault-matrix %s: epoch %d write: %w", c.Name, epoch, err)
			}
		}
		got, err := tech.Collect()
		if err != nil {
			return cell, fmt.Errorf("fault-matrix %s: epoch %d Collect: %w", c.Name, epoch, err)
		}
		cell.reported += int64(len(got))
		gotSet := make(map[mem.GVA]struct{}, len(got))
		for _, gva := range got {
			gotSet[gva.PageFloor()] = struct{}{}
		}
		truth := ver.Truth()
		if len(gotSet) != len(truth) {
			cell.exact = false
		}
		for _, gva := range truth {
			if _, ok := gotSet[gva]; !ok {
				cell.exact = false
			}
		}
		if !cell.exact {
			return cell, fmt.Errorf("fault-matrix %s: epoch %d report not oracle-exact: got %d pages, truth %d",
				c.Name, epoch, len(gotSet), len(truth))
		}
	}
	if err := tech.Close(); err != nil {
		return cell, fmt.Errorf("fault-matrix %s: Close: %w", c.Name, err)
	}
	cell.rec = tech.Recovery()
	cell.faults = inj.Total()
	cell.fired = renderCounts(inj.Counts())
	return cell, nil
}

func renderCounts(counts map[string]uint64) string {
	if len(counts) == 0 {
		return "-"
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s:%d", k, counts[k])
	}
	return strings.Join(parts, " ")
}

// FaultMatrix regenerates the robustness matrix: the Resilient tracker run
// under every canned fault mix (plus Options.FaultSpec as a custom row),
// proving its dirty-page reports stay oracle-exact while the recovery
// machinery absorbs the injected failures.
func FaultMatrix(opt Options) (*Result, error) {
	opt = opt.withDefaults()
	specs := CannedFaultSpecs
	if opt.FaultSpec != "" {
		if _, err := faults.ParseSpec(opt.FaultSpec); err != nil {
			return nil, err
		}
		specs = append(append([]CannedFaultSpec{}, specs...),
			CannedFaultSpec{Name: "custom", Spec: opt.FaultSpec, Tech: costmodel.EPML})
	}
	cells, err := sweep(opt, len(specs), func(i int, p machine.Config) (faultCell, error) {
		return runFaultCell(specs[i], opt.Seed, p)
	})
	if err != nil {
		return nil, err
	}

	t := report.NewTable("Fault matrix: oracle-exact tracking under injected faults",
		"Spec", "Rung", "Faults", "Retries", "Degraded", "Rescans", "Rescued", "Stalls", "Pages", "Exact")
	for _, c := range cells {
		exact := "yes"
		if !c.exact {
			exact = "NO"
		}
		t.AddRow(c.name, c.rung.String(), c.faults, c.rec.Retries, c.rec.Degradations,
			c.rec.Rescans, c.rec.RescuedPages, c.rec.Stalls, c.reported, exact)
	}
	t.AddNote("every row's reports matched the independent write-set oracle in both directions")
	t.AddNote("degradation ladder: EPML -> SPML -> ufd -> /proc; rescans repair lossy epochs from soft-dirty bits")

	detail := report.NewTable("Fault matrix: per-point firing counts", "Spec", "Fired")
	for _, c := range cells {
		detail.AddRow(c.name, c.fired)
	}
	return &Result{
		ID:     "fault-matrix",
		Title:  "Robustness: fault injection and graceful degradation",
		Tables: []*report.Table{t, detail},
	}, nil
}
