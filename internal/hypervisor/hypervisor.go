// Package hypervisor implements the Xen-like hypervisor of the simulation:
// VM and vCPU lifecycle, EPT and PML buffer management, vmexit handling,
// the OoH hypercall extensions (SPML's enable/disable_logging, EPML's
// one-shot VMCS-shadowing setup), the enabled_by_guest/enabled_by_hyp
// coordination flags of §IV-C, and the hypervisor's own dirty and access
// logs: a PML-backed live-migration dirty log, which is PML's original
// purpose and lets tests show guest-level (SPML) and hypervisor-level
// dirty tracking coexisting, and its PML-R read-logging extension behind
// working-set estimation.
//
// A hypervisor built with NewOracle (the "oracle" backend) gives its VMs
// a second implementation of those two logs instead: a zero-cost oracle
// that observes EPT walks directly (see oracleLog). Everything else - the
// vCPU, the guest-facing PML paths, the hypercalls - is the same.
package hypervisor

import (
	"errors"
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/cpu"
	"repro/internal/ept"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/prof"
	"repro/internal/ringbuf"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vmcs"
)

// Errors returned by the hypervisor.
var (
	ErrUnknownHypercall = errors.New("hypervisor: unknown hypercall")
	ErrNoGuestRing      = errors.New("hypervisor: no shared ring registered")
)

// Counter names recorded on each VM's vCPU counters.
const (
	CtrHCInit       = "hc_init_pml"
	CtrHCDeact      = "hc_deact_pml"
	CtrHCEnableLog  = "hc_enable_logging"
	CtrHCDisableLog = "hc_disable_logging"
	CtrHCDrain      = "hc_drain_ring"
	CtrHCShadow     = "hc_init_shadowing"
	CtrRingCopied   = "ring_entries_copied"
	CtrMigLogged    = "migration_pages_logged"
	// CtrPMLEntriesLost counts buffer entries dropped by injected
	// PML-entry-loss faults during drains.
	CtrPMLEntriesLost = "pml_entries_lost"
)

// Hypervisor is the host-wide hypervisor instance. Creating VMs is safe
// from one goroutine; each created VM is then driven by its own goroutine.
type Hypervisor struct {
	Phys  *mem.PhysMem
	Model *costmodel.Model

	vms    []*VM
	nextID int
	oracle bool // VMs get the oracle's dirty and access log
}

// New returns a hypervisor managing the given physical memory with the
// given cost model.
func New(phys *mem.PhysMem, model *costmodel.Model) *Hypervisor {
	return &Hypervisor{Phys: phys, Model: model}
}

// NewOracle is New for the "oracle" backend: every VM it creates or forks
// harvests its dirty and access logs from EPT observers (see oracleLog).
func NewOracle(phys *mem.PhysMem, model *costmodel.Model) *Hypervisor {
	return &Hypervisor{Phys: phys, Model: model, oracle: true}
}

// VMs returns the created VMs in creation order.
func (h *Hypervisor) VMs() []*VM { return h.vms }

// VM is one virtual machine with a single vCPU, matching the paper's
// evaluation setup (1 vCPU, dedicated core).
type VM struct {
	ID    int
	Hyp   *Hypervisor
	Clock *sim.Clock
	VCPU  *cpu.VCPU
	EPT   *ept.Table
	VMCS  *vmcs.VMCS

	pmlBuf mem.HPA // hypervisor-level 4 KiB PML buffer

	// SPML coordination state (§IV-C feature 3).
	enabledByGuest bool
	enabledByHyp   bool

	// rings are the per-process ring buffers shared with the guest OoH
	// module, keyed by the guest-chosen tag (the tracked PID). They
	// conceptually live in guest memory (§V: "a per-process ring buffer,
	// [access] restrict[ed] to tracker processes only"); the copy cost is
	// charged from the model's M18 curve.
	rings map[uint64]*ringSlot
	// activeTag selects which ring the PML buffer drains into: the guest
	// switches it with the enable_logging hypercall at every schedule-in
	// of a tracked process.
	activeTag uint64
	// trackedWS is the (largest) tracked working-set size in bytes, used
	// to select the per-entry cost point on memory-dependent curves.
	trackedWS uint64

	// migration dirty log (hypervisor-level PML use).
	migLog map[mem.GPA]struct{}
	// oracle, when non-nil, serves the dirty and access logs instead of
	// PML (a VM of a NewOracle hypervisor).
	oracle *oracleLog
}

// CreateVM builds a VM: vCPU, empty EPT, VMCS with an allocated PML buffer.
func (h *Hypervisor) CreateVM() (*VM, error) {
	pmlBuf, err := h.Phys.AllocFrame()
	if err != nil {
		return nil, fmt.Errorf("hypervisor: PML buffer: %w", err)
	}
	vm := h.newVM(h.nextID, pmlBuf)
	h.nextID++
	if err := vm.VMCS.Write(vmcs.FieldPMLAddress, uint64(pmlBuf)); err != nil {
		return nil, fmt.Errorf("hypervisor: programming PML address: %w", err)
	}
	h.vms = append(h.vms, vm)
	return vm, nil
}

// newVM builds VM id with its vCPU over h's memory and cost model, and
// the oracle log when h was built with NewOracle. CreateVM and
// NewVMFromSnapshot both start here.
func (h *Hypervisor) newVM(id int, pmlBuf mem.HPA) *VM {
	vm := &VM{
		ID:     id,
		Hyp:    h,
		Clock:  &sim.Clock{},
		EPT:    ept.New(),
		VMCS:   vmcs.New(),
		pmlBuf: pmlBuf,
		rings:  make(map[uint64]*ringSlot),
		migLog: make(map[mem.GPA]struct{}),
	}
	m := h.Model
	vm.VCPU = &cpu.VCPU{
		ID:    id,
		Clock: vm.Clock,
		Phys:  h.Phys,
		VMCS:  vm.VMCS,
		EPT:   vm.EPT,
		Exits: vm,
		Costs: cpu.Costs{
			WriteOp:    m.WritePerPageOp,
			ReadOp:     m.ReadPerPageOp,
			VMExit:     m.VMExit,
			VMEntry:    m.VMEntry,
			PMLLog:     m.PMLLogEntry,
			IRQDeliver: m.IRQDelivery,
			VMRead:     m.VMRead,
			VMWrite:    m.VMWrite,
		},
	}
	if h.oracle {
		vm.installOracle()
	}
	return vm
}

// ringSlot is one tracked process's shared ring plus the GPAs handed to it
// since its last drain (their EPT dirty flags re-arm at collection).
type ringSlot struct {
	ring       *ringbuf.Ring
	armedClear []mem.GPA
}

// RegisterGuestRing wires a per-process ring buffer the guest OoH module
// allocated in its own address space (§V: the ring lives in guest memory,
// never in the hypervisor's, and is dedicated per tracked process). tag is
// the guest-chosen identifier (the tracked PID); ws is that process's
// working-set size in bytes.
func (vm *VM) RegisterGuestRing(tag uint64, r *ringbuf.Ring, ws uint64) {
	vm.rings[tag] = &ringSlot{ring: r}
	vm.activeTag = tag
	if ws > vm.trackedWS {
		vm.trackedWS = ws
	}
}

// UnregisterGuestRing removes a per-process ring.
func (vm *VM) UnregisterGuestRing(tag uint64) {
	delete(vm.rings, tag)
}

// EnabledByGuest reports the SPML guest-enable coordination flag.
func (vm *VM) EnabledByGuest() bool { return vm.enabledByGuest }

// EnabledByHyp reports the hypervisor-enable coordination flag.
func (vm *VM) EnabledByHyp() bool { return vm.enabledByHyp }

// --- vmexit handling ---------------------------------------------------------

// HandleExit implements cpu.ExitHandler for the VM.
func (vm *VM) HandleExit(v *cpu.VCPU, e cpu.Exit) (uint64, error) {
	switch e.Reason {
	case cpu.ExitEPTViolation:
		return 0, vm.handleEPTViolation(e.GPA)
	case cpu.ExitPMLFull:
		return 0, vm.handlePMLFull()
	case cpu.ExitHypercall:
		return vm.handleHypercall(e.Nr, e.Args)
	case cpu.ExitVMAccess:
		// Non-shadowed guest VMCS access: disallowed; a real hypervisor
		// would inject #UD. Surfacing an error keeps guests honest.
		return 0, errors.New("hypervisor: guest VMCS access without shadowing")
	}
	return 0, fmt.Errorf("hypervisor: unhandled exit %v", e.Reason)
}

// handleEPTViolation demand-allocates a host frame for the faulting GPA.
func (vm *VM) handleEPTViolation(gpa mem.GPA) error {
	sp := vm.VCPU.Prof.Begin(prof.SubHypervisor, "ept_map")
	defer sp.End()
	vm.Clock.Advance(vm.Hyp.Model.EPTViolation)
	hpa, err := vm.Hyp.Phys.AllocFrame()
	if err != nil {
		return err
	}
	return vm.EPT.Map(gpa.PageFloor(), hpa)
}

// handlePMLFull drains the full PML buffer and resets the index, routing
// entries by the coordination flags: to the migration log if the hypervisor
// enabled PML for itself, and to the guest-shared ring if the guest did.
func (vm *VM) handlePMLFull() error {
	return vm.drainPMLBuffer()
}

// drainPMLBuffer copies every logged GPA out of the hardware buffer and
// resets the PML index to 511.
func (vm *VM) drainPMLBuffer() error {
	sp := vm.VCPU.Prof.Begin(prof.SubHypervisor, "pml_drain")
	defer sp.End()
	idx, err := vm.VMCS.Read(vmcs.FieldPMLIndex)
	if err != nil {
		return fmt.Errorf("hypervisor: PML drain: %w", err)
	}
	// Entries occupy slots (idx+1 .. 511]; an idx of 0xFFFF means full.
	first := int(idx+1) & 0xFFFF
	n := vmcs.PMLBufferEntries - first
	if n <= 0 {
		if err := vm.VMCS.Write(vmcs.FieldPMLIndex, vmcs.PMLResetIndex); err != nil {
			return fmt.Errorf("hypervisor: PML drain: %w", err)
		}
		return nil
	}
	// The buffer's backing frame is resolved once and serves this drain
	// (single goroutine: nothing frees frames or captures mid-drain).
	buf, err := vm.Hyp.Phys.FrameRef(vm.pmlBuf)
	if err != nil {
		return fmt.Errorf("hypervisor: PML drain: %w", err)
	}
	ev := vm.VCPU.Met
	start := vm.Clock.Nanos()
	copied := int64(0)
	perEntry := vm.Hyp.Model.RBCopy.PerPage(vm.wsOrDefault())
	// Counter handles resolved on first use per drain keep the map hash out
	// of the per-entry loop and allocate nothing for a counter never bumped.
	var migCtr, ringCtr *sim.Counter
	// The guest's ring takes the drained entries as one batch, in slot
	// order, after the loop: nothing in the loop reads the ring.
	rs := vm.rings[vm.activeTag]
	if !vm.enabledByGuest {
		rs = nil
	}
	var batch [vmcs.PMLBufferEntries]uint64
	pushed := batch[:0]
	for slot := first; slot < vmcs.PMLBufferEntries; slot++ {
		raw := buf.U64At(uint64(slot) * 8)
		gpa := mem.GPA(raw)
		if vm.VCPU.Inj.Fire(faults.PMLEntryLoss) {
			// The entry vanishes before either consumer sees it; the
			// Resilient tracker's rescan is what recovers the page.
			vm.VCPU.Counters.Inc(CtrPMLEntriesLost)
			ev.Count(metrics.SubHypervisor, "pml_entries_lost", "", 1)
			vm.VCPU.FaultRecord(faults.PMLEntryLoss, raw)
			continue
		}
		if vm.enabledByHyp {
			vm.migLog[gpa] = struct{}{}
			if migCtr == nil {
				migCtr = vm.VCPU.Counters.Handle(CtrMigLogged)
			}
			migCtr.Inc()
		}
		if rs != nil {
			pushed = append(pushed, uint64(gpa))
			rs.armedClear = append(rs.armedClear, gpa)
			if ringCtr == nil {
				ringCtr = vm.VCPU.Counters.Handle(CtrRingCopied)
			}
			ringCtr.Inc()
			vm.Clock.Advance(perEntry)
			copied++
		}
	}
	if len(pushed) > 0 {
		rs.ring.PushBatch(pushed)
	}
	if err := vm.VMCS.Write(vmcs.FieldPMLIndex, vmcs.PMLResetIndex); err != nil {
		return fmt.Errorf("hypervisor: PML drain: %w", err)
	}
	vm.VCPU.Event(trace.KindPMLDrain, start, vm.Clock.Nanos()-start, 0, copied)
	ev.Count(metrics.SubHypervisor, "pml_entries_logged", "", copied)
	return nil
}

func (vm *VM) wsOrDefault() uint64 {
	if vm.trackedWS != 0 {
		return vm.trackedWS
	}
	return 256 << 20
}

// --- hypercalls --------------------------------------------------------------

func (vm *VM) handleHypercall(nr int, args []uint64) (uint64, error) {
	sp := vm.VCPU.Prof.Begin(prof.SubHypervisor, hypercallName(nr))
	defer sp.End()
	m := vm.Hyp.Model
	if ev := vm.VCPU.Met; ev != nil {
		ev.Count(metrics.SubHypervisor, "hypercalls_by_type", hypercallName(nr), 1)
	}
	switch nr {
	case HCInitPML:
		// Fault points fire before any state changes so a retried call
		// starts from exactly the state the failed one saw.
		if vm.VCPU.Inj.Fire(faults.SPMLAbsent) {
			vm.VCPU.FaultRecord(faults.SPMLAbsent, uint64(nr))
			return 0, fmt.Errorf("hypervisor: init_pml: no PML support: %w", faults.ErrUnsupported)
		}
		if vm.VCPU.Inj.Fire(faults.HCInitFail) {
			vm.VCPU.FaultRecord(faults.HCInitFail, uint64(nr))
			return 0, fmt.Errorf("hypervisor: init_pml: %w", faults.ErrTransient)
		}
		vm.VCPU.Counters.Inc(CtrHCInit)
		vm.Clock.Advance(m.HypInitPML)
		if len(args) > 0 {
			vm.trackedWS = args[0]
		}
		vm.enabledByGuest = true
		// Arm logging from a clean slate: every first write must log.
		vm.EPT.ClearDirty()
		vm.VMCS.SetPMLEnabled(true)
		return 0, nil

	case HCDeactPML:
		vm.VCPU.Counters.Inc(CtrHCDeact)
		vm.Clock.Advance(m.HypDeactPML)
		vm.enabledByGuest = false
		if !vm.enabledByHyp {
			vm.VMCS.SetPMLEnabled(false)
		}
		return 0, nil

	case HCEnableLogging:
		if vm.VCPU.Inj.Fire(faults.HCEnableFail) {
			vm.VCPU.FaultRecord(faults.HCEnableFail, uint64(nr))
			return 0, fmt.Errorf("hypervisor: enable_logging: %w", faults.ErrTransient)
		}
		vm.VCPU.Counters.Inc(CtrHCEnableLog)
		vm.Clock.Advance(m.EnablePMLLog)
		// Arg 0 (optional) selects the scheduled-in process's ring: the
		// §V fix dedicating one ring per tracked process. Draining first
		// keeps the previous window's entries in the previous ring.
		if len(args) > 0 && args[0] != vm.activeTag {
			if err := vm.drainPMLBuffer(); err != nil {
				return 0, err
			}
			vm.activeTag = args[0]
		}
		if vm.enabledByGuest || vm.enabledByHyp {
			vm.VMCS.SetPMLEnabled(true)
		}
		return 0, nil

	case HCDisableLogging:
		if vm.VCPU.Inj.Fire(faults.HCDisableFail) {
			vm.VCPU.FaultRecord(faults.HCDisableFail, uint64(nr))
			return 0, fmt.Errorf("hypervisor: disable_logging: %w", faults.ErrTransient)
		}
		vm.VCPU.Counters.Inc(CtrHCDisableLog)
		vm.Clock.Advance(m.DisablePMLLog.Total(vm.wsOrDefault()))
		if err := vm.drainPMLBuffer(); err != nil {
			return 0, err
		}
		if !vm.enabledByHyp {
			vm.VMCS.SetPMLEnabled(false)
		}
		return 0, nil

	case HCDrainRing:
		if vm.VCPU.Inj.Fire(faults.HCDrainFail) {
			// Fails before any drain work: the hardware buffer and the
			// ring keep their contents intact for the retry.
			vm.VCPU.FaultRecord(faults.HCDrainFail, uint64(nr))
			return 0, fmt.Errorf("hypervisor: drain_ring: %w", faults.ErrTransient)
		}
		vm.VCPU.Counters.Inc(CtrHCDrain)
		tag := vm.activeTag
		if len(args) > 0 {
			tag = args[0]
		}
		slot := vm.rings[tag]
		if slot == nil {
			return 0, ErrNoGuestRing
		}
		if err := vm.drainPMLBuffer(); err != nil {
			return 0, err
		}
		// Re-arm dirty logging for every page the tracker now consumes.
		for _, gpa := range slot.armedClear {
			vm.EPT.ClearDirtyPage(gpa)
		}
		n := uint64(len(slot.armedClear))
		slot.armedClear = slot.armedClear[:0]
		return n, nil

	case HCInitShadow:
		if vm.VCPU.Inj.Fire(faults.EPMLAbsent) {
			vm.VCPU.FaultRecord(faults.EPMLAbsent, uint64(nr))
			return 0, fmt.Errorf("hypervisor: init_shadowing: no EPML support: %w", faults.ErrUnsupported)
		}
		if vm.VCPU.Inj.Fire(faults.HCInitFail) {
			vm.VCPU.FaultRecord(faults.HCInitFail, uint64(nr))
			return 0, fmt.Errorf("hypervisor: init_shadowing: %w", faults.ErrTransient)
		}
		vm.VCPU.Counters.Inc(CtrHCShadow)
		vm.Clock.Advance(m.HypInitShadow)
		shadow := vmcs.New()
		vm.VMCS.LinkShadow(shadow,
			vmcs.FieldGuestPMLAddress, vmcs.FieldGuestPMLIndex, vmcs.FieldGuestPMLEnable)
		vm.VMCS.SetEPMLEnabled(true)
		return 0, nil

	case HCDeactShadow:
		vm.Clock.Advance(m.HypDeactShadow)
		vm.VMCS.SetEPMLEnabled(false)
		vm.VMCS.UnlinkShadow()
		return 0, nil
	}
	return 0, fmt.Errorf("%w: %d (%s)", ErrUnknownHypercall, nr, hypercallName(nr))
}

// --- hypervisor-level PML use: live-migration dirty log -----------------------

// StartDirtyLogging arms PML for the hypervisor's own use (pre-copy live
// migration). It coexists with SPML through the coordination flags: each
// level only consumes the entries it asked for.
func (vm *VM) StartDirtyLogging() {
	if vm.oracle != nil {
		vm.oracle.startDirty()
		return
	}
	// A previous Start/Stop cycle must not bleed into this one: entries
	// drained after the last StopDirtyLogging would otherwise surface in
	// this session's first CollectDirty. When the guest is not also using
	// PML the stale hardware-buffer entries are discarded too; with SPML
	// active they stay for the guest's consumer, and the first drain
	// over-reports at worst (those pages re-log after ClearDirty anyway).
	vm.migLog = make(map[mem.GPA]struct{})
	if !vm.enabledByGuest {
		// Write cannot fail for a hypervisor-owned field.
		_ = vm.VMCS.Write(vmcs.FieldPMLIndex, vmcs.PMLResetIndex)
	}
	vm.enabledByHyp = true
	vm.EPT.ClearDirty()
	vm.VMCS.SetPMLEnabled(true)
}

// StopDirtyLogging disarms the hypervisor-level use of PML. Per §IV-C the
// hypervisor first checks that the guest is not still using it before
// turning the hardware feature off.
func (vm *VM) StopDirtyLogging() {
	if vm.oracle != nil {
		vm.oracle.stopDirty()
		return
	}
	vm.enabledByHyp = false
	if !vm.enabledByGuest {
		vm.VMCS.SetPMLEnabled(false)
	}
}

// CollectDirty drains the PML buffer and returns (and clears) the migration
// dirty log in ascending GPA order, re-arming the EPT dirty flags for the
// returned pages - one pre-copy round.
func (vm *VM) CollectDirty() ([]mem.GPA, error) {
	if vm.oracle != nil {
		return vm.oracle.collectDirty(), nil
	}
	if vm.VCPU.Inj.Fire(faults.CollectFail) {
		// Fails before any drain work: the buffer and the log keep their
		// contents intact for the retry.
		vm.VCPU.FaultRecord(faults.CollectFail, 0)
		return nil, fmt.Errorf("hypervisor: collect_dirty: %w", faults.ErrTransient)
	}
	if err := vm.drainPMLBuffer(); err != nil {
		return nil, err
	}
	// Sort at the source: neither the returned slice nor the EPT re-arm
	// order below may depend on Go map iteration order.
	out := sortedPages(vm.migLog)
	for _, gpa := range out {
		vm.EPT.ClearDirtyPage(gpa)
	}
	vm.migLog = make(map[mem.GPA]struct{})
	return out, nil
}

// --- hypervisor-level PML-R use: working-set access log -----------------------

// StartAccessLogging arms PML-R, the read-logging PML extension behind
// working-set estimation: dirty logging plus cleared accessed flags plus
// read logging, so the first touch (read or write) of every page lands in
// the PML buffer.
func (vm *VM) StartAccessLogging() {
	if vm.oracle != nil {
		vm.oracle.startAccess()
		return
	}
	vm.StartDirtyLogging()
	vm.EPT.ClearAccessed()
	vm.VCPU.PMLLogReads = true
}

// StopAccessLogging disarms PML-R and the dirty logging under it.
func (vm *VM) StopAccessLogging() {
	if vm.oracle != nil {
		vm.oracle.stopAccess()
		return
	}
	vm.VCPU.PMLLogReads = false
	vm.StopDirtyLogging()
}

// CollectAccessed returns every page touched - read or written - since
// the previous collection (or StartAccessLogging), in ascending GPA order.
func (vm *VM) CollectAccessed() ([]mem.GPA, error) {
	if vm.oracle != nil {
		return vm.oracle.collectAccessed(), nil
	}
	return vm.CollectDirty()
}
