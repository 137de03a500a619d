// Package guestos implements the Linux-like guest kernel of the simulation:
// processes and their address spaces, demand paging, the soft-dirty
// mechanism behind /proc/PID/pagemap and clear_refs, userfaultfd with miss
// and write-protect modes, a preemptive round-robin scheduler whose
// context-switch notifier chain is where the OoH module hooks in, and an
// interrupt table that receives EPML's posted self-IPI.
package guestos

import (
	"errors"
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Pid identifies a guest process.
type Pid int

// Errors returned by the kernel.
var (
	ErrNoSuchProcess = errors.New("guestos: no such process")
	ErrSegfault      = errors.New("guestos: segmentation fault")
	ErrKernelOOM     = errors.New("guestos: out of guest physical memory")
	// ErrProcessPaused is returned when workload code touches the memory of
	// a SIGSTOP'd process (CRIU's final stop-and-copy window).
	ErrProcessPaused = errors.New("guestos: memory access by paused process")
)

// Counter names recorded by the kernel on the vCPU counters.
const (
	CtrDemandFaults    = "kernel_demand_faults"
	CtrSoftDirtyFaults = "kernel_softdirty_faults"
	CtrUfdFaults       = "ufd_userspace_faults"
	CtrContextSwitches = "context_switches"
	CtrClearRefs       = "clear_refs_calls"
	CtrPagemapPages    = "pagemap_pages_walked"
	CtrUfdIoctls       = "ufd_wp_ioctls"
)

// Kernel is the guest operating system kernel for one VM.
type Kernel struct {
	VCPU  *cpu.VCPU
	Model *costmodel.Model
	Clock *sim.Clock

	procs   map[Pid]*Process
	nextPid Pid

	// Guest physical frame allocator. GPA 0 stays invalid.
	nextGPA mem.GPA
	freeGPA []mem.GPA

	Sched *Scheduler

	irqHandlers map[int]func()

	current *Process

	// ctr holds handles on the vCPU counters bumped per fault, ioctl and
	// context switch, resolved on first use rather than in NewKernel:
	// every fork boots a kernel, and most forks never bump most of them.
	ctr kernelCounters
}

// kernelCounters holds the kernel's lazily resolved counter handles.
type kernelCounters struct {
	demandFaults, softDirtyFaults, ufdFaults, ufdIoctls, contextSwitches *sim.Counter
}

// count adds n to a lazily resolved vCPU counter handle.
func (k *Kernel) count(h **sim.Counter, name string, n int64) {
	if *h == nil {
		*h = k.VCPU.Counters.Handle(name)
	}
	(*h).Add(n)
}

// NewKernel boots a guest kernel on the given vCPU, wiring itself as the
// CPU's fault handler and IRQ sink.
func NewKernel(v *cpu.VCPU, model *costmodel.Model) *Kernel {
	k := &Kernel{
		VCPU:        v,
		Model:       model,
		Clock:       v.Clock,
		procs:       make(map[Pid]*Process),
		nextPid:     1,
		nextGPA:     mem.PageSize,
		irqHandlers: make(map[int]func()),
	}
	k.Sched = newScheduler(k)
	v.Fault = k
	v.IRQ = k
	return k
}

// AllocGuestFrame reserves one guest physical frame. The backing host frame
// is demand-allocated by the hypervisor on first touch (EPT violation).
func (k *Kernel) AllocGuestFrame() mem.GPA {
	if n := len(k.freeGPA); n > 0 {
		gpa := k.freeGPA[n-1]
		k.freeGPA = k.freeGPA[:n-1]
		return gpa
	}
	gpa := k.nextGPA
	k.nextGPA += mem.PageSize
	return gpa
}

// FreeGuestFrame returns a guest frame to the allocator.
func (k *Kernel) FreeGuestFrame(gpa mem.GPA) {
	k.freeGPA = append(k.freeGPA, gpa)
}

// Spawn creates a new process with an empty address space.
func (k *Kernel) Spawn(name string) *Process {
	p := newProcess(k, k.nextPid, name)
	k.nextPid++
	k.procs[p.Pid] = p
	k.Sched.addProcess(p)
	return p
}

// Process returns the process with the given pid.
func (k *Kernel) Process(pid Pid) (*Process, bool) {
	p, ok := k.procs[pid]
	return p, ok
}

// Exit removes a process and releases its guest frames.
func (k *Kernel) Exit(p *Process) {
	p.releaseAll()
	delete(k.procs, p.Pid)
	k.Sched.removeProcess(p)
	if k.current == p {
		k.current = nil
	}
}

// Current returns the process currently on the CPU.
func (k *Kernel) Current() *Process { return k.current }

// --- cpu.FaultHandler ---------------------------------------------------------

// HandlePageFault services a guest #PF: userfaultfd regions first (miss and
// write-protect modes, §III-A), then the soft-dirty write-protect path
// (§III-B), then ordinary demand paging.
func (k *Kernel) HandlePageFault(v *cpu.VCPU, gva mem.GVA, write bool) error {
	p := k.current
	if p == nil {
		return fmt.Errorf("%w: fault at %v with no current process", ErrSegfault, gva)
	}
	return p.handleFault(gva, write)
}

// --- cpu.IRQSink ---------------------------------------------------------------

// RegisterIRQ installs a handler for an interrupt vector. The paper's Linux
// change is exactly this: a new vector for EPML's self-IPI (§IV-E).
func (k *Kernel) RegisterIRQ(vector int, handler func()) {
	k.irqHandlers[vector] = handler
}

// DeliverIRQ dispatches a posted interrupt to its registered handler.
func (k *Kernel) DeliverIRQ(vector int) {
	h, ok := k.irqHandlers[vector]
	if !ok {
		return
	}
	sp := k.VCPU.Begin(prof.SubGuestOS, "irq")
	h()
	sp.Event(trace.KindIRQ, 0, int64(vector))
}
