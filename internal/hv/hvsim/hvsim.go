// Package hvsim registers the cycle-accurate PML simulator as the "sim"
// backend of the hv interface. It is a thin adapter: every call delegates
// to internal/hypervisor and internal/cpu, whose structs expose public
// fields (VM.Clock, VCPU.Met, ...) and therefore cannot implement the
// accessor-method interfaces themselves.
//
// Code that genuinely needs the simulator - module loading, ring
// registration, fault wiring - unwraps the adapter through Sim()/SimCPU()
// instead of growing the portable interface.
package hvsim

import (
	"repro/internal/costmodel"
	"repro/internal/cpu"
	"repro/internal/faults"
	"repro/internal/hv"
	"repro/internal/hypervisor"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/trace"
)

func init() {
	hv.Register("sim", New)
}

// New builds a simulator-backed hypervisor.
func New(cfg hv.Config) (hv.Hypervisor, error) {
	model := cfg.Model
	if model == nil {
		model = costmodel.Default()
	}
	phys := cfg.Phys
	if phys == nil {
		phys = mem.NewPhysMem(cfg.HostMemBytes)
	}
	return &Hyp{sim: hypervisor.New(phys, model)}, nil
}

// Hyp adapts *hypervisor.Hypervisor to hv.Hypervisor.
type Hyp struct {
	sim *hypervisor.Hypervisor
	vms []hv.VirtualMachine
}

// Sim returns the underlying simulator hypervisor.
func (h *Hyp) Sim() *hypervisor.Hypervisor { return h.sim }

func (h *Hyp) Name() string            { return "sim" }
func (h *Hyp) Phys() *mem.PhysMem      { return h.sim.Phys }
func (h *Hyp) Model() *costmodel.Model { return h.sim.Model }

func (h *Hyp) CreateVM() (hv.VirtualMachine, error) {
	svm, err := h.sim.CreateVM()
	if err != nil {
		return nil, err
	}
	vm := &VM{hyp: h, sim: svm}
	h.vms = append(h.vms, vm)
	return vm, nil
}

func (h *Hyp) VMs() []hv.VirtualMachine { return append([]hv.VirtualMachine(nil), h.vms...) }

// adopt wraps an already-created simulator VM (snapshot forks enter here).
func (h *Hyp) adopt(svm *hypervisor.VM) hv.VirtualMachine {
	vm := &VM{hyp: h, sim: svm}
	h.vms = append(h.vms, vm)
	return vm
}

// NewVMFromSnapshot installs a forked VM replaying snap (a snapshot taken
// by this backend) into h's - typically forked - physical memory.
func (h *Hyp) NewVMFromSnapshot(snap hv.Snapshot) (hv.VirtualMachine, error) {
	s, err := unwrapSnapshot(snap)
	if err != nil {
		return nil, err
	}
	svm, err := h.sim.NewVMFromSnapshot(s)
	if err != nil {
		return nil, err
	}
	return h.adopt(svm), nil
}

// VM adapts *hypervisor.VM. It implements hv.DirtyLog and hv.AccessLog.
type VM struct {
	hyp  *Hyp
	sim  *hypervisor.VM
	vcpu *VCPU // lazily built; sim.VCPU never changes
}

// Sim returns the underlying simulator VM. Consumers assert for
// interface{ Sim() *hypervisor.VM } when they need simulator-only surface
// (module loading, shared rings, EPT/VMCS poking in tests).
func (vm *VM) Sim() *hypervisor.VM { return vm.sim }

func (vm *VM) ID() int           { return vm.sim.ID }
func (vm *VM) Clock() *sim.Clock { return vm.sim.Clock }

func (vm *VM) VCPU() hv.VirtualCPU {
	if vm.vcpu == nil {
		vm.vcpu = &VCPU{sim: vm.sim.VCPU}
	}
	return vm.vcpu
}

func (vm *VM) MappedCount() int       { return vm.sim.EPT.Mapped() }
func (vm *VM) MappedPages() []mem.GPA { return vm.sim.MappedPages() }

func (vm *VM) CaptureSnapshot() (hv.Snapshot, error) { return vm.sim.CaptureSnapshot() }

func (vm *VM) RestoreSnapshot(snap hv.Snapshot) error {
	s, err := unwrapSnapshot(snap)
	if err != nil {
		return err
	}
	return vm.sim.RestoreSnapshot(s)
}

func unwrapSnapshot(snap hv.Snapshot) (*hypervisor.VMSnapshot, error) {
	s, ok := snap.(*hypervisor.VMSnapshot)
	if !ok {
		return nil, hv.ErrForeignSnapshot("sim", snap)
	}
	return s, nil
}

// DirtyLog: straight delegation - the simulator's migration dirty log is
// the capability's reference implementation.

func (vm *VM) StartDirtyLogging()               { vm.sim.StartDirtyLogging() }
func (vm *VM) StopDirtyLogging()                { vm.sim.StopDirtyLogging() }
func (vm *VM) CollectDirty() ([]mem.GPA, error) { return vm.sim.CollectDirty() }

// AccessLog: PML-R arming, the sequence wss.Estimator historically open-
// coded - dirty logging plus cleared accessed flags plus read logging, so
// the first touch (read or write) of every page lands in the PML buffer.

func (vm *VM) StartAccessLogging() {
	vm.sim.StartDirtyLogging()
	vm.sim.EPT.ClearAccessed()
	vm.sim.VCPU.PMLLogReads = true
}

func (vm *VM) StopAccessLogging() {
	vm.sim.VCPU.PMLLogReads = false
	vm.sim.StopDirtyLogging()
}

func (vm *VM) CollectAccessed() ([]mem.GPA, error) { return vm.sim.CollectDirty() }

// VCPU adapts *cpu.VCPU, whose public fields collide with the accessor
// names the interface requires.
type VCPU struct {
	sim *cpu.VCPU
}

// Sim returns the underlying simulator vCPU.
func (v *VCPU) Sim() *cpu.VCPU { return v.sim }

func (v *VCPU) ID() int                    { return v.sim.ID }
func (v *VCPU) Clock() *sim.Clock          { return v.sim.Clock }
func (v *VCPU) Counters() *sim.Counters    { return &v.sim.Counters }
func (v *VCPU) Injector() *faults.Injector { return v.sim.Inj }
func (v *VCPU) Metrics() *metrics.Events   { return v.sim.Met }
func (v *VCPU) Profiler() *prof.Tap        { return v.sim.Prof }
func (v *VCPU) Monitor() *monitor.Monitor  { return v.sim.Mon }

func (v *VCPU) Event(k trace.Kind, ts, cost int64, addr uint64, arg int64) {
	v.sim.Event(k, ts, cost, addr, arg)
}

func (v *VCPU) FaultRecord(p faults.Point, addr uint64) { v.sim.FaultRecord(p, addr) }

func (v *VCPU) KernelReadGPA(gpa mem.GPA, b []byte) error  { return v.sim.KernelReadGPA(gpa, b) }
func (v *VCPU) KernelWriteGPA(gpa mem.GPA, b []byte) error { return v.sim.KernelWriteGPA(gpa, b) }
