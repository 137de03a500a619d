package hypervisor

import (
	"errors"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/ept"
	"repro/internal/mem"
	"repro/internal/vmcs"
)

// ErrNotQuiescent is returned when a VM cannot be captured because live
// guest-tracking wiring (shared rings are owned by the guest OoH module)
// would not survive a replay.
var ErrNotQuiescent = errors.New("hypervisor: VM not quiescent for snapshot")

// VMSnapshot is one VM's captured state above physical memory: virtual
// clock, EPT (with A/D flags), VMCS chain, vCPU architectural state, the
// SPML coordination flags and the migration dirty log. Memory itself is
// captured separately by mem.PhysMem.CaptureSnapshot - the two compose at
// the machine level, where the quiescence of all VMs sharing the PhysMem
// can be enforced.
type VMSnapshot struct {
	id        int
	clock     int64
	pmlBuf    mem.HPA
	ept       *ept.Snapshot
	vmcs      *vmcs.Snapshot
	vcpu      *cpu.Snapshot
	byGuest   bool
	byHyp     bool
	activeTag uint64
	trackedWS uint64
	migLog    []mem.GPA // sorted
}

// CaptureSnapshot captures the VM's state. The VM must be quiescent: no
// oracle log armed (its observer sets are host-side harvest state, and a
// fork must not inherit a half-collected interval), no guest rings
// registered (the guest module that owns them holds host-side closures a
// restore cannot rebuild) and no vCPU write hooks attached.
func (vm *VM) CaptureSnapshot() (*VMSnapshot, error) {
	if o := vm.oracle; o != nil && (o.dirtyOn || o.accessOn) {
		return nil, fmt.Errorf("%w: oracle logging armed", ErrNotQuiescent)
	}
	if n := len(vm.rings); n != 0 {
		return nil, fmt.Errorf("%w: %d guest rings registered", ErrNotQuiescent, n)
	}
	vs, err := vm.VCPU.CaptureSnapshot()
	if err != nil {
		return nil, err
	}
	return &VMSnapshot{
		id:        vm.ID,
		clock:     vm.Clock.Nanos(),
		pmlBuf:    vm.pmlBuf,
		ept:       vm.EPT.Snapshot(),
		vmcs:      vm.VMCS.Snapshot(),
		vcpu:      vs,
		byGuest:   vm.enabledByGuest,
		byHyp:     vm.enabledByHyp,
		activeTag: vm.activeTag,
		trackedWS: vm.trackedWS,
		migLog:    sortedPages(vm.migLog),
	}, nil
}

// RestoreSnapshot rewinds the VM to a captured state. Physical memory is
// restored separately (machine level) - the VM's PML buffer HPA must refer
// to the same frame in the restored image, which holds by construction
// when the memory snapshot and the VM snapshot come from the same capture.
func (vm *VM) RestoreSnapshot(s *VMSnapshot) error {
	if vm.pmlBuf != s.pmlBuf {
		return fmt.Errorf("hypervisor: snapshot PML buffer %v does not match VM's %v",
			s.pmlBuf, vm.pmlBuf)
	}
	vm.Clock.SetNanos(s.clock)
	vm.EPT.Restore(s.ept)
	vm.VMCS.Restore(s.vmcs)
	vm.VCPU.RestoreSnapshot(s.vcpu)
	vm.enabledByGuest = s.byGuest
	vm.enabledByHyp = s.byHyp
	vm.activeTag = s.activeTag
	vm.trackedWS = s.trackedWS
	vm.rings = make(map[uint64]*ringSlot)
	vm.migLog = make(map[mem.GPA]struct{}, len(s.migLog))
	for _, gpa := range s.migLog {
		vm.migLog[gpa] = struct{}{}
	}
	return nil
}

// NewVMFromSnapshot installs a forked VM into h, replaying snapshot s.
// Unlike CreateVM it does not allocate a PML buffer: the buffer frame
// already exists in h's (forked) physical memory at the captured HPA. The
// VM keeps the captured identity so forked runs charge costs and emit
// trace records exactly as the original would. An oracle fork starts
// with its logs disarmed, as capture requires of its source.
func (h *Hypervisor) NewVMFromSnapshot(s *VMSnapshot) (*VM, error) {
	vm := h.newVM(s.id, s.pmlBuf)
	if err := vm.RestoreSnapshot(s); err != nil {
		return nil, err
	}
	h.vms = append(h.vms, vm)
	if s.id >= h.nextID {
		h.nextID = s.id + 1
	}
	return vm, nil
}

// MappedPages returns the VM's mapped guest frames in ascending GPA order
// (EPT.Range already ascends).
func (vm *VM) MappedPages() []mem.GPA {
	out := make([]mem.GPA, 0, vm.EPT.Mapped())
	vm.EPT.Range(func(gpa mem.GPA, _ ept.Entry) bool {
		out = append(out, gpa)
		return true
	})
	return out
}
