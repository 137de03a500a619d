// Package machine assembles the full simulated stack - hypervisor, VMs,
// guest kernels, OoH modules/libs - and hands out tracking techniques
// bound to guest processes. It is the composition root used by the
// experiments, the public facade and the tests.
//
// Config.Backend picks the hypervisor's own dirty and access logs (see
// Backends): "sim" harvests them through PML, "oracle" through zero-cost
// EPT observers. Everything else is the same simulator on both.
package machine

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/cpu"
	"repro/internal/faults"
	"repro/internal/guestos"
	"repro/internal/hypervisor"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/prof"
	"repro/internal/trace"
	"repro/internal/tracking"
)

// Config parameterizes a machine.
type Config struct {
	// Backend names the backend to boot on ("" = DefaultBackend(), i.e.
	// the OOH_BACKEND environment variable or "sim").
	Backend string
	// HostMemBytes bounds simulated DRAM (0 = unlimited).
	HostMemBytes uint64
	// VMs is the number of virtual machines to boot (default 1).
	VMs int
	// DisablePreemption turns the guests' schedulers off, for
	// microbenchmarks needing exact event counts.
	DisablePreemption bool
	// Tracer, when non-nil, is attached to every vCPU so all layers emit
	// trace records. A Tracer is single-goroutine (like sim.Clock): only
	// set it on machines driven by one goroutine. Parallel experiment
	// sweeps give each machine its own trace.Shard and merge afterwards.
	Tracer *trace.Tracer
	// Faults, when non-nil, is attached to every vCPU so all layers'
	// fault-injection points can fire. Like the Tracer it is
	// single-goroutine; nil means no injected faults.
	Faults *faults.Injector
	// Metrics, when non-nil, receives counters/histograms from every layer
	// via a per-vCPU metrics.Events bridge. Like the Tracer it is
	// single-goroutine; parallel sweeps give each machine its own registry
	// and fold them with Registry.Merge. Nil disables metrics at zero cost.
	Metrics *metrics.Registry
	// Profiler, when non-nil, receives virtual-time call-path spans from
	// every layer via a per-vCPU prof.Tap bound to that VM's clock. Like
	// the Tracer it is single-goroutine: only set it on machines driven by
	// one goroutine. Parallel sweeps give each machine its own Profiler
	// and fold them with Profiler.Merge. Nil disables profiling at zero
	// cost.
	Profiler *prof.Profiler
	// Monitor, when non-nil, is the online monitoring plane: it observes
	// every event the metrics bridge sees (via the bridge's observer hook)
	// plus the checkpoint/migration round boundaries, maintaining live
	// dirty-rate estimators, alert rules and the convergence predictor.
	// It needs a registry to publish gauges and evaluate rules against; if
	// Metrics is nil a private registry is created for it. Like the other
	// planes it is single-goroutine; parallel sweeps Fork one monitor per
	// cell and fold them with Monitor.Merge. Nil disables monitoring at
	// zero cost.
	Monitor *monitor.Monitor
}

// Machine is a booted host: one hypervisor, n VMs each running a guest
// kernel. Multi-VM machines are used by the Fig. 10/11 scalability
// experiments; each VM is driven by its own goroutine there, while all VMs
// share the host's physical memory.
type Machine struct {
	Phys   *mem.PhysMem
	Model  *costmodel.Model
	Hyp    *hypervisor.Hypervisor
	Guests []*Guest

	backend string // the resolved Config.Backend; snapshots carry it
}

// Guest bundles one VM with its guest kernel and lazily loaded OoH modules.
type Guest struct {
	VM     *hypervisor.VM
	Kernel *guestos.Kernel

	spmlLib *core.Lib
	epmlLib *core.Lib
}

// Backends returns the backend names, sorted: "oracle" and "sim".
func Backends() []string { return []string{"oracle", "sim"} }

// DefaultBackend returns the backend used when none is named: the
// OOH_BACKEND environment variable when set (the conformance CI runs every
// suite under each value), otherwise "sim".
func DefaultBackend() string {
	if name := os.Getenv("OOH_BACKEND"); name != "" {
		return name
	}
	return "sim"
}

// newMachine builds the named backend's hypervisor over phys ("" means
// DefaultBackend) and the machine around it, with no guests yet.
func newMachine(backend string, phys *mem.PhysMem, model *costmodel.Model) (*Machine, error) {
	if backend == "" {
		backend = DefaultBackend()
	}
	var h *hypervisor.Hypervisor
	switch backend {
	case "sim":
		h = hypervisor.New(phys, model)
	case "oracle":
		h = hypervisor.NewOracle(phys, model)
	default:
		return nil, fmt.Errorf("machine: hv: unknown backend %q (have %v)", backend, Backends())
	}
	return &Machine{Phys: phys, Model: model, Hyp: h, backend: backend}, nil
}

// New boots a machine on the default cost model (costmodel.Default).
func New(cfg Config) (*Machine, error) {
	n := cfg.VMs
	if n <= 0 {
		n = 1
	}
	m, err := newMachine(cfg.Backend, mem.NewPhysMem(cfg.HostMemBytes), costmodel.Default())
	if err != nil {
		return nil, err
	}
	reg := cfg.attachMonitor()
	for i := 0; i < n; i++ {
		vm, err := m.Hyp.CreateVM()
		if err != nil {
			return nil, fmt.Errorf("machine: creating VM %d: %w", i, err)
		}
		m.Guests = append(m.Guests, newGuest(m, vm, cfg, reg, i))
	}
	return m, nil
}

// attachMonitor attaches cfg's monitor and returns the registry the
// guests' metrics bridges feed: cfg.Metrics, or a private registry when
// only the monitor needs one (it publishes gauges and evaluates rules
// against a registry even when the caller didn't ask for metrics).
func (cfg Config) attachMonitor() *metrics.Registry {
	reg := cfg.Metrics
	if cfg.Monitor != nil {
		if reg == nil {
			reg = metrics.NewRegistry()
		}
		cfg.Monitor.Attach(cfg.Tracer, reg)
	}
	return reg
}

// newGuest wires the observability planes into a created VM's vCPU and
// boots its guest kernel. Shared between New (cold boot) and Fork.
func newGuest(m *Machine, vm *hypervisor.VM, cfg Config, reg *metrics.Registry, i int) *Guest {
	wireGuestProbes(vm.VCPU, cfg, reg, i)
	k := guestos.NewKernel(vm.VCPU, m.Model)
	if cfg.DisablePreemption {
		k.Sched.SetDisabled(true)
	}
	return &Guest{VM: vm, Kernel: k}
}

// wireGuestProbes points guest i's vCPU at cfg's observability planes.
func wireGuestProbes(v *cpu.VCPU, cfg Config, reg *metrics.Registry, i int) {
	v.SetTracer(cfg.Tracer)
	v.Inj = cfg.Faults
	v.Met = metrics.NewEvents(reg)
	v.Prof = cfg.Profiler.Tap(v.Clock)
	if cfg.Monitor != nil {
		v.Met.SetObserver(int32(i), cfg.Monitor)
		v.Mon = cfg.Monitor
	}
	if i == 0 {
		// Only the first guest feeds the sampler's default series;
		// duplicate registrations from later guests would shadow them.
		v.Met.WatchDefaults()
	}
}

// AttachProbes rewires every guest's observability planes to cfg's Tracer,
// Faults, Metrics, Profiler and Monitor, exactly as New would have. It
// exists for the forked-sweep contract: an experiment cell warms (or forks)
// a machine with the planes detached and attaches its per-cell shard
// afterwards, so cold-booted and forked runs observe identical streams -
// neither sees the warm-up phase. Only the probe fields change; clocks,
// kernels and memory are untouched.
func (m *Machine) AttachProbes(cfg Config) {
	reg := cfg.attachMonitor()
	for i, g := range m.Guests {
		wireGuestProbes(g.VM.VCPU, cfg, reg, i)
	}
}

// Guest returns the i-th guest (0-based).
func (m *Machine) Guest(i int) *Guest { return m.Guests[i] }

// SPML returns the guest's SPML OoH library, loading the module on first use.
func (g *Guest) SPML() *core.Lib {
	if g.spmlLib == nil {
		g.spmlLib = core.NewLib(core.NewModule(g.Kernel, g.VM, core.ModeSPML))
	}
	return g.spmlLib
}

// EPML returns the guest's EPML OoH library, loading the module on first use.
func (g *Guest) EPML() *core.Lib {
	if g.epmlLib == nil {
		g.epmlLib = core.NewLib(core.NewModule(g.Kernel, g.VM, core.ModeEPML))
	}
	return g.epmlLib
}

// NewTechnique constructs the given tracking technique bound to a process
// of this guest.
func (g *Guest) NewTechnique(kind costmodel.Technique, proc *guestos.Process) (tracking.Technique, error) {
	switch kind {
	case costmodel.Oracle:
		return tracking.NewOracle(proc), nil
	case costmodel.Proc:
		return tracking.NewProc(g.Kernel, proc.Pid), nil
	case costmodel.Ufd:
		return tracking.NewUfd(proc), nil
	case costmodel.SPML:
		return tracking.NewPML(g.SPML(), proc.Pid), nil
	case costmodel.EPML:
		return tracking.NewPML(g.EPML(), proc.Pid), nil
	}
	return nil, fmt.Errorf("machine: unknown technique %v", kind)
}

// NewResilient wraps the degradation ladder starting at preferred around
// this guest's techniques, injecting the vCPU's fault injector. The wrapper
// probes capabilities at Init, retries transient failures and repairs lossy
// collections (see tracking.Resilient).
func (g *Guest) NewResilient(preferred costmodel.Technique, proc *guestos.Process) *tracking.Resilient {
	factory := func(kind costmodel.Technique) (tracking.Technique, error) {
		return g.NewTechnique(kind, proc)
	}
	return tracking.NewResilient(proc, g.VM.VCPU.Inj, factory, tracking.LadderFrom(preferred)...)
}

// AllTechniques lists the four real techniques in the paper's comparison
// order plus the oracle first.
func AllTechniques() []costmodel.Technique {
	return []costmodel.Technique{
		costmodel.Oracle, costmodel.Proc, costmodel.Ufd, costmodel.SPML, costmodel.EPML,
	}
}

// RealTechniques lists the four techniques the paper evaluates.
func RealTechniques() []costmodel.Technique {
	return []costmodel.Technique{costmodel.Proc, costmodel.Ufd, costmodel.SPML, costmodel.EPML}
}
