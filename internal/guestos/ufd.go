package guestos

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/pgtable"
	"repro/internal/prof"
)

// UfdMode selects a userfaultfd monitoring mode (§III-A).
type UfdMode int

// Monitoring modes.
const (
	// UfdMissing notifies the tracker the first time a monitored page is
	// touched (page not yet present).
	UfdMissing UfdMode = 1 << iota
	// UfdWriteProtect notifies the tracker when the tracked process
	// attempts to modify a monitored page.
	UfdWriteProtect
)

func (m UfdMode) String() string {
	switch m {
	case UfdMissing:
		return "missing"
	case UfdWriteProtect:
		return "write_protect"
	case UfdMissing | UfdWriteProtect:
		return "missing|write_protect"
	}
	return "none"
}

// UfdEvent describes one fault delivered to the tracker. The tracked
// process stays suspended until the handler returns, exactly as with the
// real userfaultfd: the fault resolution time is charged to the tracked
// process's execution.
type UfdEvent struct {
	Proc    *Process
	GVA     mem.GVA
	Write   bool
	Missing bool // true for a missing-page fault, false for write-protect
}

// UfdHandler resolves faults in userspace. It must establish forward
// progress: install the page (UfdCopyZero) for missing faults, or remove
// write protection (UfdWriteUnprotect) for write-protect faults.
type UfdHandler func(ev UfdEvent) error

// ErrUfdUnresolved reports a handler that returned without resolving the
// fault, which would hang the tracked thread forever on real hardware.
var ErrUfdUnresolved = errors.New("guestos: userfaultfd fault not resolved by handler")

type ufdRegistration struct {
	region Region
	mode   UfdMode
}

type ufdState struct {
	regs    []ufdRegistration
	handler UfdHandler
}

func (u *ufdState) covers(gva mem.GVA, mode UfdMode) bool {
	for _, reg := range u.regs {
		if reg.region.Contains(gva) && reg.mode&mode != 0 {
			return true
		}
	}
	return false
}

// raise delivers a fault to the tracker and verifies it was resolved.
func (u *ufdState) raise(p *Process, gva mem.GVA, write, missing bool) error {
	k := p.k
	sp := k.VCPU.Prof.Begin(prof.SubGuestOS, "ufd_fault")
	defer sp.End()
	k.count(&k.ctr.ufdFaults, CtrUfdFaults, 1)
	// The faulting thread context-switches to the handler and back (2 x
	// M1). The userspace handling cost itself (M6) is charged by the
	// tracker-side handler: the paper attributes it to Tracker ("the time
	// spent in Tracker", §III-A) while the tracked thread stays suspended
	// for its whole duration.
	k.count(&k.ctr.contextSwitches, CtrContextSwitches, 2)
	k.Clock.Advance(2 * k.Model.ContextSwitch)
	if u.handler == nil {
		return fmt.Errorf("%w: no handler registered (pid %d, %v)", ErrUfdUnresolved, p.Pid, gva)
	}
	if err := u.handler(UfdEvent{Proc: p, GVA: gva, Write: write, Missing: missing}); err != nil {
		return err
	}
	// Verify forward progress so a buggy handler cannot livelock the MMU.
	pte, present := p.PT.Lookup(gva)
	if missing && !present {
		return fmt.Errorf("%w: missing page %v still absent", ErrUfdUnresolved, gva)
	}
	if !missing && write && !pte.Writable() {
		return fmt.Errorf("%w: page %v still write-protected", ErrUfdUnresolved, gva)
	}
	return nil
}

// UfdRegister registers a region for userfaultfd monitoring with the given
// mode and handler, mirroring the UFFDIO_REGISTER ioctl. For write-protect
// mode every present page is write-protected immediately (the tracker's
// initialization step); the per-page ioctl cost is the paper's M2.
func (p *Process) UfdRegister(r Region, mode UfdMode, handler UfdHandler) error {
	if p.k.VCPU.Inj.Fire(faults.UfdAbsent) {
		// Models a kernel built without CONFIG_USERFAULTFD: the register
		// ioctl fails before any page is protected.
		p.k.VCPU.FaultRecord(faults.UfdAbsent, uint64(r.Start))
		return fmt.Errorf("guestos: userfaultfd unavailable: %w", faults.ErrUnsupported)
	}
	if p.ufd == nil {
		p.ufd = &ufdState{}
	}
	p.ufd.handler = handler
	p.ufd.regs = append(p.ufd.regs, ufdRegistration{region: r, mode: mode})
	if mode&UfdWriteProtect != 0 {
		return p.ufdProtectRange(r)
	}
	return nil
}

// UfdUnregister removes every registration covering the region.
func (p *Process) UfdUnregister(r Region) {
	if p.ufd == nil {
		return
	}
	regs := p.ufd.regs[:0]
	for _, reg := range p.ufd.regs {
		if reg.region != r {
			regs = append(regs, reg)
		}
	}
	p.ufd.regs = regs
}

// ufdProtectRange write-protects every present page in r.
func (p *Process) ufdProtectRange(r Region) error {
	pages := 0
	var failed error
	p.PT.RangeSpan(r.Start, r.End, func(gva mem.GVA, pte pgtable.PTE) bool {
		pages++
		err := p.PT.Update(gva, func(e pgtable.PTE) pgtable.PTE {
			return (e | pgtable.FlagUfdWP) &^ pgtable.FlagWritable
		})
		if err != nil {
			failed = err
			return false
		}
		return true
	})
	p.k.count(&p.k.ctr.ufdIoctls, CtrUfdIoctls, int64(pages))
	p.k.Clock.Advance(p.k.Model.IoctlWriteProtectPerPage * time.Duration(pages))
	return failed
}

// UfdWriteProtect re-protects one page (tracker re-arming between rounds).
func (p *Process) UfdWriteProtect(gva mem.GVA) error {
	p.k.count(&p.k.ctr.ufdIoctls, CtrUfdIoctls, 1)
	p.k.Clock.Advance(p.k.Model.IoctlWriteProtectPerPage)
	return p.PT.Update(gva.PageFloor(), func(e pgtable.PTE) pgtable.PTE {
		return (e | pgtable.FlagUfdWP) &^ pgtable.FlagWritable
	})
}

// UfdWriteUnprotect resolves a write-protect fault: restores write access
// and wakes the tracked thread (UFFDIO_WRITEPROTECT with WP=0).
func (p *Process) UfdWriteUnprotect(gva mem.GVA) error {
	p.k.count(&p.k.ctr.ufdIoctls, CtrUfdIoctls, 1)
	p.k.Clock.Advance(p.k.Model.IoctlWriteProtectPerPage)
	return p.PT.Update(gva.PageFloor(), func(e pgtable.PTE) pgtable.PTE {
		return (e | pgtable.FlagWritable) &^ pgtable.FlagUfdWP
	})
}

// UfdCopyZero resolves a missing fault by installing a fresh zero page
// (UFFDIO_ZEROPAGE).
func (p *Process) UfdCopyZero(gva mem.GVA) error {
	p.k.count(&p.k.ctr.ufdIoctls, CtrUfdIoctls, 1)
	p.k.Clock.Advance(p.k.Model.IoctlWriteProtectPerPage)
	return p.mapPage(gva)
}
