// Package cpu simulates a VT-x vCPU: the two-level MMU walk (guest page
// table then EPT) performed on every guest memory access, the PML logging
// micro-ops hooked into the EPT dirty-flag logic, the paper's EPML
// extension (dual GVA/GPA logging plus posted self-IPI), hypercalls, and
// guest-mode vmread/vmwrite with VMCS shadowing.
package cpu

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/ept"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/pgtable"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vmcs"
)

// Mode is the VMX CPU mode.
type Mode int

// VMX modes.
const (
	VMXRoot    Mode = iota // hypervisor
	VMXNonRoot             // guest
)

// Costs are the raw machine costs the vCPU charges to the virtual clock.
// Higher-level costs (fault handling, hypercall service time) are charged
// by the kernel and hypervisor from the cost model.
type Costs struct {
	WriteOp    time.Duration // one write access (TLB-hit path)
	ReadOp     time.Duration // one read access
	VMExit     time.Duration // world switch guest -> hypervisor
	VMEntry    time.Duration // world switch hypervisor -> guest
	PMLLog     time.Duration // CPU appends one PML buffer entry
	IRQDeliver time.Duration // posted interrupt delivery
	VMRead     time.Duration // guest vmread on shadow VMCS
	VMWrite    time.Duration // guest vmwrite on shadow VMCS
}

// Counter names exported by the vCPU.
const (
	CtrVMExits       = "vmexits"
	CtrHypercalls    = "hypercalls"
	CtrGuestFaults   = "guest_faults"
	CtrEPTViolations = "ept_violations"
	CtrPMLLogs       = "pml_logs"
	CtrPMLFullExits  = "pml_full_exits"
	CtrEPMLLogs      = "epml_logs"
	CtrEPMLFullIRQs  = "epml_full_irqs"
	CtrVMReads       = "vmreads"
	CtrVMWrites      = "vmwrites"
	CtrWriteOps      = "write_ops"
	CtrReadOps       = "read_ops"
	CtrSPPViolations = "spp_violations"
	// CtrEPMLDropped counts guest-level PML entries lost to injected
	// buffer-full IPI drops (the loss mode Bitchebe et al. measure).
	CtrEPMLDropped = "epml_entries_dropped"
)

// ErrNoAddressSpace is returned for accesses issued with no page table set.
var ErrNoAddressSpace = errors.New("cpu: no guest address space installed")

// maxFaultRetries bounds the fault->retry loop of a single access so a
// broken fault handler cannot hang the simulation.
const maxFaultRetries = 8

// VCPU is one simulated virtual CPU. The paper's setups use one vCPU per
// VM; VCPU is accordingly not safe for concurrent use.
type VCPU struct {
	ID    int
	Clock *sim.Clock
	Phys  *mem.PhysMem
	VMCS  *vmcs.VMCS
	EPT   *ept.Table

	// GuestPT is the currently installed guest address space (CR3); the
	// guest kernel switches it on context switches.
	GuestPT *pgtable.Table

	Exits ExitHandler
	Fault FaultHandler
	IRQ   IRQSink

	Costs    Costs
	Counters sim.Counters

	// tracer, when non-nil, receives one record per traced event this vCPU
	// (and the layers reached through it) reports through Event - the only
	// way to reach it, so every traced event also reaches Met. Tracing only
	// observes: it never advances the clock, so traced and untraced runs are
	// bit-identical in virtual time. The machine wires it with SetTracer.
	tracer *trace.Tracer

	// Inj, when non-nil, injects deterministic faults at this vCPU's trust
	// boundaries (and, through it, the hypervisor's and guest kernel's).
	// Like the tracer it is single-goroutine; a nil or unarmed injector
	// leaves the simulation bit-identical to one without injection at all.
	Inj *faults.Injector

	// Met, when non-nil, aggregates every event reported through Event into
	// the metrics registry (per-kind counters, cost histograms, sampled
	// time-series) with the same (kind, cost, arg) the trace record
	// carries. Layers use it directly only for the labelled extras that are
	// not 1:1 with an event (Count, SetGauge); observing an event here
	// instead of through Event would break trace/metrics agreement.
	Met *metrics.Events

	// Prof, when non-nil, is the span-profiler tap for this vCPU's
	// goroutine: layers open virtual-time spans on it, building the
	// call-path tree behind flamegraph/pprof exports. A span whose interval
	// is also timed for stats or reported as an event opens through Begin
	// instead, so one Span serves all three. Like the tracer it only
	// observes (never advances the clock) and is single-goroutine; nil
	// disables profiling at zero cost.
	Prof *prof.Tap

	// Mon, when non-nil, is the online monitor plane. The vCPU itself only
	// carries the handle: event-stream feeds arrive through Met's observer
	// hook, and the checkpoint/migration drivers call Mon.Round at each
	// pre-copy round boundary. Like the other planes it only observes and
	// is single-goroutine; nil disables monitoring at zero cost.
	Mon *monitor.Monitor

	// EPMLVector is the self-IPI vector raised when the guest-level PML
	// buffer fills (EPML only).
	EPMLVector int

	// writeHooks observe every successful guest write (the page base
	// written). They model perfect instrumentation: the oracle technique
	// and the completeness verifier use them; they charge no cost. Hooks
	// run in registration order and are removed by the id AddWriteHook
	// returned, so stacked observers can detach in any order.
	writeHooks []writeHook
	nextHookID int

	// SPPCheck, when non-nil, implements Intel SPP (Sub-Page write
	// Permission): it is consulted with the target GPA of every guest
	// write, and returning false blocks the write. The paper's §III-D
	// proposes exposing SPP through OoH for secure heap allocators.
	SPPCheck func(gpa mem.GPA) bool
	// SPPViolation is invoked when SPPCheck denies a write. Returning nil
	// retries the access (the handler lifted the protection); returning
	// an error aborts the faulting write with that error.
	SPPViolation func(gva mem.GVA, gpa mem.GPA) error

	// PMLLogReads extends PML to also log pages on EPT accessed-flag 0->1
	// transitions during reads (the PML-R extension of Bitchebe et al.,
	// §VII: efficient VM working-set-size estimation).
	PMLLogReads bool

	mode Mode

	// kernelMode suppresses PML logging and guest-PT translation for
	// guest-kernel accesses to its own physical pages (ring buffers, PML
	// buffers); see KernelWriteGPA.
	kernelMode bool

	// tlb is the host-side software TLB and arm the cached VMCS arming
	// state; both are invisible to the simulation (see tlb.go for the
	// invalidation contract).
	tlb tlbState
	arm armCache
	// pmlBuf/epmlBuf cache the backing frames of the two log buffers so
	// per-logged-page buffer writes skip PhysMem's lookup (see physWriteU64).
	pmlBuf  bufCache
	epmlBuf bufCache
	// epmlBufGPA is the guest-physical address of the armed EPML guest
	// buffer, captured when the extended vmwrite micro-op translates
	// GUEST_PML_ADDRESS. The walk circuit's buffer stores are guest-
	// physical writes, so they run the EPT dirty-flag protocol against
	// this frame (hypervisor-level PML must see the buffer page change,
	// or live migration ships a stale log page).
	epmlBufGPA mem.GPA

	// ctr holds Counters handles for the hot-path counters, resolved
	// lazily on first increment. Handles survive Counters.Reset/Restore,
	// so a snapshot restore keeps them.
	ctr hotCounters
}

// hotCounters holds lazily resolved handles for counters incremented on
// the per-access and per-exit hot paths, keeping the map hash out of them.
type hotCounters struct {
	vmexits       *sim.Counter
	hypercalls    *sim.Counter
	guestFaults   *sim.Counter
	eptViolations *sim.Counter
	pmlLogs       *sim.Counter
	pmlFullExits  *sim.Counter
	epmlLogs      *sim.Counter
	vmreads       *sim.Counter
	vmwrites      *sim.Counter
	writeOps      *sim.Counter
	readOps       *sim.Counter
}

// inc bumps a lazily resolved counter handle.
func (v *VCPU) inc(p **sim.Counter, name string) {
	if *p == nil {
		*p = v.Counters.Handle(name)
	}
	(*p).Inc()
}

// Mode returns the current VMX mode.
func (v *VCPU) Mode() Mode { return v.mode }

// writeHook is one registered write observer.
type writeHook struct {
	id int
	fn func(gva mem.GVA)
}

// AddWriteHook registers fn to observe every successful guest write and
// returns an id for RemoveWriteHook. Hooks fire in registration order.
// A hook must be zero-cost: it may not advance the clock or open a
// profiler span, because a TLB-hit write counts its page walk as a
// zero-length span after the hooks have run.
func (v *VCPU) AddWriteHook(fn func(gva mem.GVA)) int {
	v.nextHookID++
	v.writeHooks = append(v.writeHooks, writeHook{id: v.nextHookID, fn: fn})
	return v.nextHookID
}

// RemoveWriteHook detaches the hook with the given id. Removal is
// position-independent: observers stacked on top of the removed one keep
// firing, so trackers and verifiers can stop in any order. Removal is
// copy-on-write so a hook may remove itself (or any other hook) while a
// dispatch is iterating a snapshot of the old slice.
func (v *VCPU) RemoveWriteHook(id int) {
	for i, h := range v.writeHooks {
		if h.id == id {
			nw := make([]writeHook, 0, len(v.writeHooks)-1)
			nw = append(nw, v.writeHooks[:i]...)
			nw = append(nw, v.writeHooks[i+1:]...)
			v.writeHooks = nw
			return
		}
	}
}

// WriteHookCount reports how many write observers are attached.
func (v *VCPU) WriteHookCount() int { return len(v.writeHooks) }

// SetAddressSpace installs a guest page table as the active address space
// and, like a real CR3 write, flushes the software TLB.
func (v *VCPU) SetAddressSpace(pt *pgtable.Table) {
	v.GuestPT = pt
	v.tlb.flush()
}

// fireWriteHooks dispatches the write observers over a stable snapshot of
// the hook slice: hooks may add or remove hooks reentrantly (removal
// reallocates, appends never alias the snapshot's prefix), and every hook
// registered at dispatch time still fires exactly once.
func (v *VCPU) fireWriteHooks(gva mem.GVA) {
	hooks := v.writeHooks
	for i := range hooks {
		hooks[i].fn(gva)
	}
}

// --- vmexit plumbing -------------------------------------------------------

// exit performs a world switch to the hypervisor, runs the exit handler and
// resumes the guest.
func (v *VCPU) exit(e Exit) (uint64, error) {
	if v.Exits == nil {
		return 0, fmt.Errorf("cpu: unhandled vmexit %v", e.Reason)
	}
	v.inc(&v.ctr.vmexits, CtrVMExits)
	sp := v.Begin(prof.SubCPU, exitOp(e))
	v.Clock.Advance(v.Costs.VMExit)
	prev := v.mode
	v.mode = VMXRoot
	ret, err := v.Exits.HandleExit(v, e)
	v.mode = prev
	v.Clock.Advance(v.Costs.VMEntry)
	k, arg := exitTrace(e)
	sp.Event(k, uint64(e.GPA), arg)
	if v.Met != nil {
		v.Met.Count(metrics.SubCPU, "vmexits_by_reason", e.Reason.String(), 1)
	}
	return ret, err
}

// exitTrace maps a vmexit to its trace kind and detail argument: hypercalls
// and the PML/EPT reasons get dedicated kinds so per-kind summaries
// attribute the full service span (world switches plus handler) without
// double counting; everything else is a generic vmexit.
func exitTrace(e Exit) (trace.Kind, int64) {
	switch e.Reason {
	case ExitHypercall:
		return trace.KindHypercall, int64(e.Nr)
	case ExitPMLFull:
		return trace.KindPMLFull, 0
	case ExitEPTViolation:
		return trace.KindEPTViolation, 0
	}
	return trace.KindVMExit, int64(e.Reason)
}

// exitOp names the profiler span for a vmexit, mirroring exitTrace's
// kind split so profiles and per-kind trace summaries line up.
func exitOp(e Exit) string {
	switch e.Reason {
	case ExitHypercall:
		return "hypercall"
	case ExitPMLFull:
		return "pml_full"
	case ExitEPTViolation:
		return "ept_violation"
	}
	return "vmexit"
}

// Hypercall issues a hypercall from the guest (a vmexit with ExitHypercall).
func (v *VCPU) Hypercall(nr int, args ...uint64) (uint64, error) {
	v.inc(&v.ctr.hypercalls, CtrHypercalls)
	return v.exit(Exit{Reason: ExitHypercall, Nr: nr, Args: args})
}

// FaultRecord reports a KindFault event for an injected fault that fired
// at this vCPU (or at a layer reached through it). The fault itself is
// instantaneous - recovery time is charged, and reported, where recovery
// happens.
func (v *VCPU) FaultRecord(p faults.Point, addr uint64) {
	v.Event(trace.KindFault, v.Clock.Nanos(), 0, addr, int64(p))
	if v.Met != nil {
		v.Met.Count(metrics.SubFaults, "injections", p.String(), 1)
	}
}

// --- guest-mode VMCS access -------------------------------------------------

// GuestVMRead executes vmread in vmx non-root mode. Shadowed fields return
// without a vmexit; others trap to the hypervisor.
func (v *VCPU) GuestVMRead(f vmcs.Field) (uint64, error) {
	v.inc(&v.ctr.vmreads, CtrVMReads)
	v.Clock.Advance(v.Costs.VMRead)
	val, err := v.VMCS.GuestRead(f)
	if errors.Is(err, vmcs.ErrExitRequired) {
		return v.exit(Exit{Reason: ExitVMAccess})
	}
	return val, err
}

// GuestVMWrite executes vmwrite in vmx non-root mode. For the EPML field
// GUEST_PML_ADDRESS the extended micro-op first translates the guest's GPA
// to an HPA through the EPT (the paper's VMX ISA extension, §IV-D), so the
// logging circuit can write directly to RAM.
func (v *VCPU) GuestVMWrite(f vmcs.Field, val uint64) error {
	v.inc(&v.ctr.vmwrites, CtrVMWrites)
	v.Clock.Advance(v.Costs.VMWrite)
	if v.Inj.Fire(faults.VMWriteFail) {
		v.FaultRecord(faults.VMWriteFail, uint64(f))
		return fmt.Errorf("cpu: vmwrite %v: %w", f, faults.ErrTransient)
	}
	if f == vmcs.FieldGuestPMLAddress {
		hpa, err := v.translateGPA(mem.GPA(val), true)
		if err != nil {
			return fmt.Errorf("cpu: EPML buffer translation: %w", err)
		}
		v.epmlBufGPA = mem.GPA(val)
		val = uint64(hpa)
	}
	err := v.VMCS.GuestWrite(f, val)
	if errors.Is(err, vmcs.ErrExitRequired) {
		_, err = v.exit(Exit{Reason: ExitVMAccess})
	}
	return err
}

// translateGPA resolves gpa through the EPT, raising an EPT-violation exit
// (demand allocation by the hypervisor) when unmapped.
func (v *VCPU) translateGPA(gpa mem.GPA, write bool) (mem.HPA, error) {
	for try := 0; try < maxFaultRetries; try++ {
		hpa, err := v.EPT.Translate(gpa)
		if err == nil {
			return hpa, nil
		}
		v.inc(&v.ctr.eptViolations, CtrEPTViolations)
		if _, err := v.exit(Exit{Reason: ExitEPTViolation, GPA: gpa, Write: write}); err != nil {
			return 0, err
		}
	}
	return 0, fmt.Errorf("cpu: EPT violation loop at %v", gpa)
}

// --- PML logging micro-ops ---------------------------------------------------

// pmlLog appends gpa (page base) to the hypervisor-level PML buffer,
// triggering a PML-full vmexit when the index underflows, exactly per the
// SDM: an invalid index exits first, then the entry is logged and the index
// decremented.
func (v *VCPU) pmlLog(gpa mem.GPA) error {
	sp := v.Prof.Begin(prof.SubCPU, "pml_log")
	defer sp.End()
	if v.Inj.Fire(faults.PMLFullExit) {
		// Spurious buffer-full exit: the hypervisor drains a partial
		// buffer. Nothing is lost - entries already logged reach the ring
		// early - but the exit and drain costs land mid-monitoring.
		v.inc(&v.ctr.pmlFullExits, CtrPMLFullExits)
		v.FaultRecord(faults.PMLFullExit, uint64(gpa))
		if _, err := v.exit(Exit{Reason: ExitPMLFull}); err != nil {
			return err
		}
	}
	for {
		idx, err := v.VMCS.Read(vmcs.FieldPMLIndex)
		if err != nil {
			return err
		}
		if idx > vmcs.PMLResetIndex { // 0xFFFF after decrementing past 0
			v.inc(&v.ctr.pmlFullExits, CtrPMLFullExits)
			if _, err := v.exit(Exit{Reason: ExitPMLFull}); err != nil {
				return err
			}
			continue
		}
		bufRaw, err := v.VMCS.Read(vmcs.FieldPMLAddress)
		if err != nil {
			return err
		}
		buf := mem.HPA(bufRaw)
		if err := v.physWriteU64(&v.pmlBuf, buf+mem.HPA(idx*8), uint64(gpa)); err != nil {
			return fmt.Errorf("cpu: PML buffer write: %w", err)
		}
		if err := v.VMCS.Write(vmcs.FieldPMLIndex, (idx-1)&0xFFFF); err != nil {
			return err
		}
		v.inc(&v.ctr.pmlLogs, CtrPMLLogs)
		v.Clock.Advance(v.Costs.PMLLog)
		cost := int64(v.Costs.PMLLog)
		v.Event(trace.KindPMLLog, v.Clock.Nanos()-cost, cost, uint64(gpa), 0)
		// Entries logged since the last drain: the index counts down from
		// PMLResetIndex, so occupancy is the distance walked.
		v.Met.SetGauge(metrics.SubCPU, "pml_buffer_occupancy", "", int64(vmcs.PMLResetIndex-idx)+1)
		return nil
	}
}

// epmlFields returns the VMCS that holds the EPML guest-state fields: the
// shadow VMCS when shadowing is linked (the guest armed logging through
// exit-free vmwrites), otherwise the ordinary VMCS.
func (v *VCPU) epmlFields() *vmcs.VMCS {
	if s := v.VMCS.Shadow(); s != nil {
		return s
	}
	return v.VMCS
}

// epmlLog appends gva (page base) to the guest-level PML buffer. On buffer
// full the CPU raises a posted self-IPI into the guest - no vmexit - which
// the OoH module handles by draining the buffer into the per-process ring.
func (v *VCPU) epmlLog(gva mem.GVA) error {
	sp := v.Prof.Begin(prof.SubCPU, "epml_log")
	defer sp.End()
	fields := v.epmlFields()
	for try := 0; ; try++ {
		idx, err := fields.Read(vmcs.FieldGuestPMLIndex)
		if err != nil {
			return err
		}
		if idx > vmcs.PMLResetIndex {
			if try >= maxFaultRetries {
				return errors.New("cpu: EPML buffer-full IRQ handler made no progress")
			}
			if v.Inj.Fire(faults.IPIDrop) {
				// The posted self-IPI is lost: nobody drains the full
				// buffer and the entry has nowhere to go, so it is
				// dropped - the buffer-full loss mode of Bitchebe et al.
				v.Counters.Inc(CtrEPMLDropped)
				v.FaultRecord(faults.IPIDrop, uint64(gva))
				return nil
			}
			v.Counters.Inc(CtrEPMLFullIRQs)
			irqSp := v.Begin(prof.SubCPU, "epml_full_irq")
			v.Clock.Advance(v.Costs.IRQDeliver)
			if v.IRQ == nil {
				return errors.New("cpu: EPML buffer full with no IRQ sink")
			}
			v.Met.Count(metrics.SubCPU, "posted_ipis", "", 1)
			v.IRQ.DeliverIRQ(v.EPMLVector)
			if v.Inj.Fire(faults.IPIDup) {
				// The posted interrupt arrives twice; the second delivery
				// must find an empty buffer and do no harm.
				v.FaultRecord(faults.IPIDup, uint64(gva))
				v.Clock.Advance(v.Costs.IRQDeliver)
				v.Met.Count(metrics.SubCPU, "posted_ipis", "", 1)
				v.IRQ.DeliverIRQ(v.EPMLVector)
			}
			irqSp.Event(trace.KindEPMLFullIRQ, 0, int64(v.EPMLVector))
			continue
		}
		bufRaw, err := fields.Read(vmcs.FieldGuestPMLAddress)
		if err != nil {
			return err
		}
		buf := mem.HPA(bufRaw)
		if err := v.physWriteU64(&v.epmlBuf, buf+mem.HPA(idx*8), uint64(gva)); err != nil {
			return fmt.Errorf("cpu: EPML buffer write: %w", err)
		}
		// The store above is a guest-physical write by the walk circuit:
		// it runs the EPT dirty-flag protocol against the buffer frame, so
		// hypervisor-level PML logs the buffer page the first time it
		// changes between drains. Without this, live migration's dirty
		// rounds never resend the log page and the destination image holds
		// a stale copy of it. The frame was demand-mapped when the buffer
		// was armed, so a walk failure here cannot raise a fresh exit.
		if _, eptDirtied, err := v.EPT.WalkWrite(v.epmlBufGPA); err == nil && eptDirtied {
			if pml, _, err := v.armState(); err == nil && pml {
				if err := v.pmlLog(v.epmlBufGPA.PageFloor()); err != nil {
					return err
				}
			}
		}
		if err := fields.Write(vmcs.FieldGuestPMLIndex, (idx-1)&0xFFFF); err != nil {
			return err
		}
		v.inc(&v.ctr.epmlLogs, CtrEPMLLogs)
		v.Clock.Advance(v.Costs.PMLLog)
		cost := int64(v.Costs.PMLLog)
		v.Event(trace.KindEPMLLog, v.Clock.Nanos()-cost, cost, uint64(gva), 0)
		v.Met.SetGauge(metrics.SubCPU, "pml_buffer_occupancy", "guest", int64(vmcs.PMLResetIndex-idx)+1)
		return nil
	}
}

// epmlArmed reports whether guest-level logging is currently enabled.
func (v *VCPU) epmlArmed() (bool, error) {
	if !v.VMCS.EPMLEnabled() {
		return false, nil
	}
	val, err := v.epmlFields().Read(vmcs.FieldGuestPMLEnable)
	return val != 0, err
}

// --- guest memory accesses ----------------------------------------------------

// walkForWrite resolves gva for a write access, raising guest #PF and EPT
// violations as needed, setting guest A/D flags and EPT A/D flags, and
// firing the PML/EPML logging micro-ops on dirty transitions.
func (v *VCPU) walkForWrite(gva mem.GVA) (mem.HPA, error) {
	if v.GuestPT == nil {
		return 0, ErrNoAddressSpace
	}
	sp := v.Prof.Begin(prof.SubCPU, "page_walk")
	defer sp.End()
	for try := 0; try < maxFaultRetries; try++ {
		slot, pte, ok := v.GuestPT.LookupSlot(gva)
		if !ok || !pte.Writable() {
			v.inc(&v.ctr.guestFaults, CtrGuestFaults)
			if v.Fault == nil {
				return 0, fmt.Errorf("cpu: unhandled #PF (write) at %v", gva)
			}
			if err := v.tracedFault(gva, true); err != nil {
				return 0, err
			}
			continue
		}
		gpa := pte.GPA() + mem.GPA(gva.PageOffset())
		// Sub-page permission check precedes the dirty-flag protocol: a
		// blocked write must not dirty the page.
		if v.SPPCheck != nil && !v.SPPCheck(gpa) {
			v.Counters.Inc(CtrSPPViolations)
			if v.SPPViolation == nil {
				return 0, fmt.Errorf("cpu: unhandled SPP violation at %v", gva)
			}
			start := v.Clock.Nanos()
			if err := v.SPPViolation(gva, gpa); err != nil {
				return 0, err
			}
			v.Event(trace.KindSPPViolation, start, v.Clock.Nanos()-start, uint64(gva), 0)
			continue
		}
		hpa, eptDirtied, err := v.EPT.WalkWrite(gpa)
		if err != nil {
			v.inc(&v.ctr.eptViolations, CtrEPTViolations)
			if _, err := v.exit(Exit{Reason: ExitEPTViolation, GPA: gpa, Write: true}); err != nil {
				return 0, err
			}
			continue
		}
		// A/D flags commit only once the full two-level walk succeeds, as
		// on real hardware; setting them earlier would lose the dirty 0->1
		// transition across an EPT-violation retry. The paper's EPML
		// extension logs the GVA on the guest-PTE dirty transition ("we
		// modify the page walk circuit to make the processor log the GVA").
		guestDirtied := !pte.Dirty()
		slot.OrFlags(pgtable.FlagAccessed | pgtable.FlagDirty)
		pml, _, err := v.armState()
		if err != nil {
			return 0, err
		}
		if eptDirtied && pml {
			if err := v.pmlLog(gpa.PageFloor()); err != nil {
				return 0, err
			}
		}
		// Re-read the arming state after pmlLog: a PML-full drain writes
		// the VMCS, which bumps its generation and refreshes the cache.
		_, armed, err := v.armState()
		if err != nil {
			return 0, err
		}
		if guestDirtied && armed {
			if err := v.epmlLog(gva.PageFloor()); err != nil {
				return 0, err
			}
		}
		v.tlbFill(gva, slot)
		v.fireWriteHooks(gva.PageFloor())
		return hpa, nil
	}
	return 0, fmt.Errorf("cpu: fault loop on write at %v", gva)
}

// tracedFault dispatches a guest #PF to the kernel's fault handler,
// recording the full service span (the envelope around the narrower
// demand/soft-dirty/ufd kinds the kernel emits).
func (v *VCPU) tracedFault(gva mem.GVA, write bool) error {
	sp := v.Begin(prof.SubCPU, "guest_pf")
	if err := v.Fault.HandlePageFault(v, gva, write); err != nil {
		sp.End()
		return err
	}
	arg := int64(0)
	if write {
		arg = 1
	}
	sp.Event(trace.KindGuestPF, uint64(gva), arg)
	return nil
}

// walkForRead resolves gva for a read access.
func (v *VCPU) walkForRead(gva mem.GVA) (mem.HPA, error) {
	if v.GuestPT == nil {
		return 0, ErrNoAddressSpace
	}
	sp := v.Prof.Begin(prof.SubCPU, "page_walk")
	defer sp.End()
	for try := 0; try < maxFaultRetries; try++ {
		slot, pte, ok := v.GuestPT.LookupSlot(gva)
		if !ok {
			v.inc(&v.ctr.guestFaults, CtrGuestFaults)
			if v.Fault == nil {
				return 0, fmt.Errorf("cpu: unhandled #PF (read) at %v", gva)
			}
			if err := v.tracedFault(gva, false); err != nil {
				return 0, err
			}
			continue
		}
		gpa := pte.GPA() + mem.GPA(gva.PageOffset())
		hpa, accessed, err := v.EPT.WalkRead(gpa)
		if err != nil {
			v.inc(&v.ctr.eptViolations, CtrEPTViolations)
			if _, err := v.exit(Exit{Reason: ExitEPTViolation, GPA: gpa, Write: false}); err != nil {
				return 0, err
			}
			continue
		}
		// The accessed flag commits only once the full two-level walk
		// succeeds, matching the write path's A/D protocol: an
		// EPT-violation retry must not leave a premature accessed bit.
		slot.OrFlags(pgtable.FlagAccessed)
		if accessed && v.PMLLogReads && v.VMCS.PMLEnabled() {
			if err := v.pmlLog(gpa.PageFloor()); err != nil {
				return 0, err
			}
		}
		v.tlbFill(gva, slot)
		return hpa, nil
	}
	return 0, fmt.Errorf("cpu: fault loop on read at %v", gva)
}

// Write stores b at gva in the current guest address space, splitting the
// access at page boundaries like real hardware does for the A/D protocol.
func (v *VCPU) Write(gva mem.GVA, b []byte) error { return v.write(gva, b, nil, 0) }

// WriteShared is Write of src[at:at+n], where src is host memory that
// nothing writes while a guest page may hold it. It makes the same guest
// access; each piece that lands in a resolved frame passes the page-sized
// window of src aligned with its guest page, when that window lies inside
// src, so that the frame can share it (mem.PhysMem.WriteShared).
func (v *VCPU) WriteShared(gva mem.GVA, src []byte, at, n int) error {
	return v.write(gva, src[at:at+n], src, at)
}

// write is Write of b, which starts at offset at of src when src is not
// nil. b and src are separate so that only src escapes: Write's b stays on
// its caller's stack.
func (v *VCPU) write(gva mem.GVA, b, src []byte, at int) error {
	for len(b) > 0 {
		n := int(mem.PageSize - gva.PageOffset())
		if n > len(b) {
			n = len(b)
		}
		v.inc(&v.ctr.writeOps, CtrWriteOps)
		v.Clock.Advance(v.Costs.WriteOp)
		if fr, ok := v.tlbWriteFrame(gva); ok {
			// A TLB hit proves no A/D, PML, EPML or SPP transition is
			// possible (see tlb.go), so the walk reduces to the zero-cost
			// write observers plus a write into the cached host frame,
			// bypassing PhysMem's lookup. The walk is still
			// profiled, as the zero-length span it is: the hooks advance
			// no clock and open no span, so counting it after them folds
			// into the tree what a span around them would.
			v.fireWriteHooks(gva.PageFloor())
			v.Prof.Count(prof.SubCPU, "page_walk")
			v.land(fr, gva, b[:n], src, at)
		} else {
			hpa, err := v.walkForWrite(gva)
			if err != nil {
				return err
			}
			if fr, ok := v.tlbFilledFrame(gva, hpa); ok {
				v.land(fr, gva, b[:n], src, at)
			} else if err := v.Phys.Write(hpa, b[:n]); err != nil {
				return err
			}
		}
		gva = gva.Add(uint64(n))
		b = b[n:]
		at += n
	}
	return nil
}

// land writes b into fr at gva's page offset, through WriteShared when
// src's window aligned with gva's page lies inside src.
func (v *VCPU) land(fr *mem.Frame, gva mem.GVA, b, src []byte, at int) {
	off := gva.PageOffset()
	if w := at - int(off); src != nil && w >= 0 && w+mem.PageSize <= len(src) {
		v.Phys.WriteShared(fr, off, len(b), src[w:w+mem.PageSize])
		return
	}
	v.Phys.WriteFrame(fr, off, b)
}

// Read loads len(b) bytes from gva into b.
func (v *VCPU) Read(gva mem.GVA, b []byte) error {
	for len(b) > 0 {
		n := int(mem.PageSize - gva.PageOffset())
		if n > len(b) {
			n = len(b)
		}
		v.inc(&v.ctr.readOps, CtrReadOps)
		v.Clock.Advance(v.Costs.ReadOp)
		if fr, ok := v.tlbReadFrame(gva); ok {
			v.Prof.Count(prof.SubCPU, "page_walk")
			fr.ReadAt(b[:n], gva.PageOffset())
		} else {
			hpa, err := v.walkForRead(gva)
			if err != nil {
				return err
			}
			if fr, ok := v.tlbFilledFrame(gva, hpa); ok {
				fr.ReadAt(b[:n], gva.PageOffset())
			} else if err := v.Phys.Read(hpa, b[:n]); err != nil {
				return err
			}
		}
		gva = gva.Add(uint64(n))
		b = b[n:]
	}
	return nil
}

// WriteU64 stores a 64-bit value at gva (must not cross a page boundary).
func (v *VCPU) WriteU64(gva mem.GVA, val uint64) error {
	var b [8]byte
	b[0] = byte(val)
	b[1] = byte(val >> 8)
	b[2] = byte(val >> 16)
	b[3] = byte(val >> 24)
	b[4] = byte(val >> 32)
	b[5] = byte(val >> 40)
	b[6] = byte(val >> 48)
	b[7] = byte(val >> 56)
	return v.Write(gva, b[:])
}

// ReadU64 loads a 64-bit value from gva.
func (v *VCPU) ReadU64(gva mem.GVA) (uint64, error) {
	var b [8]byte
	if err := v.Read(gva, b[:]); err != nil {
		return 0, err
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56, nil
}

// --- guest-kernel physical accesses -------------------------------------------

// KernelWriteGPA writes guest-kernel data at a guest physical address,
// bypassing the user page table and, deliberately, the PML logging hooks:
// the kernel's own bookkeeping writes (ring drains, buffer resets) must not
// pollute the tracked dirty set.
func (v *VCPU) KernelWriteGPA(gpa mem.GPA, b []byte) error {
	for len(b) > 0 {
		n := int(mem.PageSize - gpa.PageOffset())
		if n > len(b) {
			n = len(b)
		}
		hpa, err := v.translateGPA(gpa, true)
		if err != nil {
			return err
		}
		if err := v.Phys.Write(hpa, b[:n]); err != nil {
			return err
		}
		gpa += mem.GPA(n)
		b = b[n:]
	}
	return nil
}

// KernelReadGPA reads guest-kernel data at a guest physical address.
func (v *VCPU) KernelReadGPA(gpa mem.GPA, b []byte) error {
	for len(b) > 0 {
		n := int(mem.PageSize - gpa.PageOffset())
		if n > len(b) {
			n = len(b)
		}
		hpa, err := v.translateGPA(gpa, false)
		if err != nil {
			return err
		}
		if err := v.Phys.Read(hpa, b[:n]); err != nil {
			return err
		}
		gpa += mem.GPA(n)
		b = b[n:]
	}
	return nil
}
