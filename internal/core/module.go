// Package core implements the paper's primary contribution: the OoH
// (Out of Hypervisor) facility that exposes Intel PML to guest userspace.
//
// Following §IV-B, OoH ships as a UIO-style driver in two parts:
//
//   - Module: the guest kernel module. It allocates the ring buffer shared
//     with userspace (and, for SPML, filled by the hypervisor), registers
//     tracked PIDs, hooks the scheduler's context-switch notifier chain to
//     enable/disable logging around a tracked process's time slices, and -
//     for EPML - owns the guest-level PML buffer, arms it through exit-free
//     vmwrites to the shadow VMCS, and handles the buffer-full self-IPI.
//
//   - Lib: the userspace template code a Tracker (CRIU, Boehm GC, ...)
//     links in. It opens sessions against the module and fetches dirty
//     page addresses; for SPML it performs the GPA->GVA reverse mapping
//     that EPML's hardware extension renders unnecessary.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/guestos"
	"repro/internal/hypervisor"
	"repro/internal/mem"
	"repro/internal/pgtable"
	"repro/internal/prof"
	"repro/internal/ringbuf"
	"repro/internal/trace"
	"repro/internal/vmcs"
)

// Mode selects the OoH variant.
type Mode int

// OoH variants (§IV-C, §IV-D).
const (
	// ModeSPML emulates per-process PML in the hypervisor: hypercalls on
	// every schedule-in/out, GPAs in the ring, reverse mapping in the lib.
	ModeSPML Mode = iota
	// ModeEPML uses the paper's hardware extension: the CPU logs GVAs to
	// a guest-owned buffer, armed by vmwrites on the shadow VMCS, drained
	// on a posted self-IPI; the hypervisor is off the critical path.
	ModeEPML
)

func (m Mode) String() string {
	if m == ModeSPML {
		return "SPML"
	}
	return "EPML"
}

// EPMLVector is the interrupt vector of the guest-buffer-full self-IPI; the
// paper's Linux patch adds exactly this entry to the interrupt table.
const EPMLVector = 0xEC

// DefaultRingEntries sizes the per-process ring buffer. It must comfortably
// exceed the largest dirty set between two fetches; the completeness tests
// drive this. 1<<20 entries cover 4 GiB of distinct dirty pages. The size
// caps what the ring holds, not what it allocates: its memory follows the
// entries a session logs, 64 KiB at a time.
const DefaultRingEntries = 1 << 20

// Errors returned by the module.
var (
	ErrAlreadyTracked = errors.New("core: pid already has an OoH session")
	ErrNotTracked     = errors.New("core: pid has no OoH session")
)

// Module is the OoH guest kernel module.
type Module struct {
	K    *guestos.Kernel
	VM   *hypervisor.VM
	Mode Mode

	// RingEntries sizes each session's ring buffer; zero selects
	// DefaultRingEntries. Ablation benches vary it.
	RingEntries int

	sessions map[guestos.Pid]*session
	// shadowReady notes that the one EPML setup hypercall has been made
	// (§IV-D: "This is the only hypercall performed in EPML").
	shadowReady bool
}

// session is the per-tracked-process state.
type session struct {
	mod  *Module
	proc *guestos.Process
	ring *ringbuf.Ring

	// EPML: the guest-level PML buffer page (guest physical) and the GVAs
	// whose guest-PTE dirty bits must be cleared at fetch to re-arm
	// logging.
	guestBufGPA mem.GPA

	active bool
}

// NewModule loads the OoH module into a guest kernel. Loading performs no
// hypercalls; those happen per Register, matching the measured M9/M10
// initialization costs.
func NewModule(k *guestos.Kernel, vm *hypervisor.VM, mode Mode) *Module {
	m := &Module{K: k, VM: vm, Mode: mode, sessions: make(map[guestos.Pid]*session)}
	if mode == ModeEPML {
		// Program the self-IPI vector into the (emulated) CPU and install
		// the handler in the guest's interrupt table (§IV-E Linux change).
		k.VCPU.EPMLVector = EPMLVector
		k.RegisterIRQ(EPMLVector, m.handleBufferFullIRQ)
	}
	return m
}

// Register starts tracking pid: the Tracker's ioctl into the module. It
// allocates the ring, arms the hardware (via hypercall for SPML; via the
// one-shot shadowing setup plus vmwrites for EPML) and hooks the scheduler.
func (m *Module) Register(pid guestos.Pid) error {
	if _, dup := m.sessions[pid]; dup {
		return fmt.Errorf("%w: %d", ErrAlreadyTracked, pid)
	}
	proc, ok := m.K.Process(pid)
	if !ok {
		return fmt.Errorf("%w: %d", guestos.ErrNoSuchProcess, pid)
	}
	entries := m.RingEntries
	if entries <= 0 {
		entries = DefaultRingEntries
	}
	s := &session{mod: m, proc: proc, ring: ringbuf.New(entries)}
	m.K.Clock.Advance(m.K.Model.IoctlInitPML) // M3

	switch m.Mode {
	case ModeSPML:
		// The ring is allocated in guest memory and shared with the
		// hypervisor, one per tracked process (§V); register it under the
		// PID tag, then arm PML for this guest.
		m.VM.RegisterGuestRing(uint64(pid), s.ring, proc.ReservedBytes())
		if _, err := m.K.VCPU.Hypercall(hypervisor.HCInitPML, proc.ReservedBytes()); err != nil {
			return err
		}
	case ModeEPML:
		if !m.shadowReady {
			if _, err := m.K.VCPU.Hypercall(hypervisor.HCInitShadow); err != nil {
				return err
			}
			m.shadowReady = true
		}
		// Allocate the guest-level PML buffer; arm it with exit-free
		// vmwrites (the extended vmwrite micro-op translates the GPA)
		// only when the tracked process is the one on the CPU - otherwise
		// the schedule-in notifier arms it when it runs.
		s.guestBufGPA = m.K.AllocGuestFrame()
		if err := m.K.VCPU.GuestVMWrite(vmcs.FieldGuestPMLIndex, vmcs.PMLResetIndex); err != nil {
			return err
		}
		if cur := m.K.Current(); cur == nil || cur == proc {
			if err := m.K.VCPU.GuestVMWrite(vmcs.FieldGuestPMLAddress, uint64(s.guestBufGPA)); err != nil {
				return err
			}
			if err := m.K.VCPU.GuestVMWrite(vmcs.FieldGuestPMLEnable, 1); err != nil {
				return err
			}
		}
		// Start from a clean slate: clear the process's guest-PTE dirty
		// bits so every first write is logged (cost inside M3's ioctl).
		m.clearGuestDirty(proc)
	}

	m.K.Sched.Notify(pid, s)
	m.sessions[pid] = s
	s.active = true
	return nil
}

// Unregister stops tracking pid and disarms the hardware.
func (m *Module) Unregister(pid guestos.Pid) error {
	s, ok := m.sessions[pid]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNotTracked, pid)
	}
	m.K.Clock.Advance(m.K.Model.IoctlDeactPML) // M4
	m.K.Sched.Unnotify(pid, s)
	s.active = false
	delete(m.sessions, pid)
	switch m.Mode {
	case ModeSPML:
		m.VM.UnregisterGuestRing(uint64(pid))
		if _, err := m.K.VCPU.Hypercall(hypervisor.HCDeactPML); err != nil {
			return err
		}
	case ModeEPML:
		if err := m.K.VCPU.GuestVMWrite(vmcs.FieldGuestPMLEnable, 0); err != nil {
			return err
		}
		if len(m.sessions) == 0 && m.shadowReady {
			if _, err := m.K.VCPU.Hypercall(hypervisor.HCDeactShadow); err != nil {
				return err
			}
			m.shadowReady = false
		}
	}
	return nil
}

// Session returns the live session for pid.
func (m *Module) Session(pid guestos.Pid) (*session, bool) {
	s, ok := m.sessions[pid]
	return s, ok
}

// SessionDropped reports how many logged addresses were lost because
// pid's ring buffer was full - zero whenever the ring is sized with
// headroom over the inter-fetch dirty set (the completeness requirement).
func (m *Module) SessionDropped(pid guestos.Pid) uint64 {
	if s, ok := m.sessions[pid]; ok {
		return s.ring.Dropped()
	}
	return 0
}

// clearGuestDirty clears the architectural dirty bit of every present PTE
// of proc, re-arming EPML's walk-circuit logging.
func (m *Module) clearGuestDirty(proc *guestos.Process) {
	proc.PT.Range(func(gva mem.GVA, pte pgtable.PTE) bool {
		_ = proc.PT.ClearFlags(gva, pgtable.FlagDirty)
		return true
	})
}

// --- scheduler notifier (per-process logging windows, challenge C2) -----------

// ScheduledIn arms logging when the tracked process gets the CPU.
func (s *session) ScheduledIn(p *guestos.Process) {
	if !s.active {
		return
	}
	switch s.mod.Mode {
	case ModeSPML:
		_, _ = s.mod.K.VCPU.Hypercall(hypervisor.HCEnableLogging, uint64(s.proc.Pid))
	case ModeEPML:
		_ = s.mod.K.VCPU.GuestVMWrite(vmcs.FieldGuestPMLAddress, uint64(s.guestBufGPA))
		_ = s.mod.K.VCPU.GuestVMWrite(vmcs.FieldGuestPMLEnable, 1)
	}
}

// ScheduledOut disarms logging when the tracked process is preempted. For
// SPML the hypercall also flushes the partial PML buffer into the ring; for
// EPML the module drains its own buffer with plain kernel reads.
func (s *session) ScheduledOut(p *guestos.Process) {
	if !s.active {
		return
	}
	switch s.mod.Mode {
	case ModeSPML:
		_, _ = s.mod.K.VCPU.Hypercall(hypervisor.HCDisableLogging)
	case ModeEPML:
		_ = s.mod.K.VCPU.GuestVMWrite(vmcs.FieldGuestPMLEnable, 0)
		s.drainGuestBuffer()
	}
}

// --- EPML guest buffer handling ------------------------------------------------

// handleBufferFullIRQ services the posted self-IPI raised by the CPU when
// the guest-level PML buffer fills (§IV-D, last hardware extension). Only
// one buffer is armed at a time - the scheduled tracked process's - so the
// handler drains exactly that session.
func (m *Module) handleBufferFullIRQ() {
	cur := m.K.Current()
	if cur == nil {
		return
	}
	if s, ok := m.sessions[cur.Pid]; ok && s.active {
		s.drainGuestBuffer()
	}
}

// drainGuestBuffer copies logged GVAs from the guest-level PML buffer into
// the per-process ring and resets the index. Reads go through the kernel
// physical path (no PML pollution); the vmread/vmwrite pair is the EPML
// monitoring-phase cost (M7/M8).
//
// The hardware index register describes the *armed* buffer, which belongs
// to the scheduled tracked process; any other session's buffer was already
// drained when its process was scheduled out, so draining it again would
// read stale entries and clobber the live index.
func (s *session) drainGuestBuffer() {
	k := s.mod.K
	if cur := k.Current(); cur != nil && cur != s.proc {
		return
	}
	sp := k.VCPU.Prof.Begin(prof.SubCore, "ring_drain")
	defer sp.End()
	start := k.Clock.Nanos()
	idx, err := k.VCPU.GuestVMRead(vmcs.FieldGuestPMLIndex)
	if err != nil {
		return
	}
	first := int(idx+1) & 0xFFFF
	if first >= vmcs.PMLBufferEntries {
		return // empty
	}
	// One read of the filled slots, one batch into the ring.
	var buf [vmcs.PMLBufferEntries * 8]byte
	var batch [vmcs.PMLBufferEntries]uint64
	if err := k.VCPU.KernelReadGPA(s.guestBufGPA+mem.GPA(first*8), buf[first*8:]); err != nil {
		return
	}
	for i := first; i < vmcs.PMLBufferEntries; i++ {
		batch[i] = binary.LittleEndian.Uint64(buf[i*8:])
	}
	s.ring.PushBatch(batch[first:])
	_ = k.VCPU.GuestVMWrite(vmcs.FieldGuestPMLIndex, vmcs.PMLResetIndex)
	k.VCPU.Event(trace.KindRingDrain, start, k.Clock.Nanos()-start, 0, int64(vmcs.PMLBufferEntries-first))
}
