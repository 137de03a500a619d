package guestos

import (
	"fmt"
	"time"

	"repro/internal/mem"
	"repro/internal/pgtable"
	"repro/internal/prof"
	"repro/internal/trace"
)

// Region is a contiguous virtual memory area of a process (a VMA).
type Region struct {
	Start mem.GVA
	End   mem.GVA // exclusive
}

// Size returns the region's length in bytes.
func (r Region) Size() uint64 { return uint64(r.End - r.Start) }

// Pages returns the region's length in pages.
func (r Region) Pages() uint64 { return r.Size() >> mem.PageShift }

// Contains reports whether gva falls inside the region.
func (r Region) Contains(gva mem.GVA) bool { return gva >= r.Start && gva < r.End }

// userBase is where process mappings start, leaving low addresses unmapped
// so nil-pointer-style bugs in workloads fault loudly.
const userBase mem.GVA = 0x0000_0000_0040_0000

// Process is one guest process: an address space plus the per-process state
// the tracking techniques need (ufd registrations, soft-dirty bits live in
// the page table itself).
type Process struct {
	Pid  Pid
	Name string

	k  *Kernel
	PT *pgtable.Table

	regions []Region
	nextMap mem.GVA

	ufd *ufdState

	// paused models a SIGSTOP'd process (CRIU's final stop-and-copy);
	// while paused, memory operations fail with ErrProcessPaused to expose
	// scheduling bugs.
	paused bool
}

func newProcess(k *Kernel, pid Pid, name string) *Process {
	return &Process{
		Pid:     pid,
		Name:    name,
		k:       k,
		PT:      pgtable.New(),
		nextMap: userBase,
	}
}

// Kernel returns the owning kernel.
func (p *Process) Kernel() *Kernel { return p.k }

// Mmap reserves size bytes of virtual address space (rounded up to whole
// pages). When eager is true every page is populated immediately, like
// mlockall(MCL_CURRENT|MCL_FUTURE) in the paper's Listing 1; otherwise
// pages are demand-mapped on first touch.
func (p *Process) Mmap(size uint64, eager bool) (Region, error) {
	if size == 0 {
		return Region{}, fmt.Errorf("guestos: zero-length mmap")
	}
	pages := mem.PagesFor(size)
	r := Region{Start: p.nextMap, End: p.nextMap.Add(pages << mem.PageShift)}
	p.nextMap = r.End.Add(mem.PageSize) // guard page between regions
	p.regions = append(p.regions, r)
	if eager {
		for gva := r.Start; gva < r.End; gva = gva.Add(mem.PageSize) {
			if err := p.mapPage(gva); err != nil {
				return Region{}, err
			}
		}
	}
	return r, nil
}

// MmapAt reserves the exact region r (MAP_FIXED), used by checkpoint
// restore to recreate an address space layout. It fails on overlap with an
// existing region.
func (p *Process) MmapAt(r Region) error {
	if r.Start.PageOffset() != 0 || r.End.PageOffset() != 0 || r.End <= r.Start {
		return fmt.Errorf("guestos: bad fixed mapping [%v,%v)", r.Start, r.End)
	}
	for _, existing := range p.regions {
		if r.Start < existing.End && existing.Start < r.End {
			return fmt.Errorf("guestos: fixed mapping [%v,%v) overlaps [%v,%v)",
				r.Start, r.End, existing.Start, existing.End)
		}
	}
	p.regions = append(p.regions, r)
	if end := r.End.Add(mem.PageSize); end > p.nextMap {
		p.nextMap = end
	}
	return nil
}

// Munmap removes a region and releases its pages.
func (p *Process) Munmap(r Region) error {
	for i, reg := range p.regions {
		if reg == r {
			p.regions = append(p.regions[:i], p.regions[i+1:]...)
			for gva := r.Start; gva < r.End; gva = gva.Add(mem.PageSize) {
				if pte, ok := p.PT.Lookup(gva); ok {
					if _, err := p.PT.Unmap(gva); err != nil {
						return err
					}
					p.k.FreeGuestFrame(pte.GPA())
				}
			}
			return nil
		}
	}
	return fmt.Errorf("guestos: munmap of unknown region [%v,%v)", r.Start, r.End)
}

// Regions returns the process's VMAs.
func (p *Process) Regions() []Region { return p.regions }

// findRegion locates the VMA containing gva.
func (p *Process) findRegion(gva mem.GVA) (Region, bool) {
	for _, r := range p.regions {
		if r.Contains(gva) {
			return r, true
		}
	}
	return Region{}, false
}

// WorkingSetBytes returns the total mapped (present) memory in bytes; the
// memory-dependent cost curves are evaluated at this size.
func (p *Process) WorkingSetBytes() uint64 {
	return uint64(p.PT.Present()) << mem.PageShift
}

// ReservedBytes returns the total reserved address space across regions.
func (p *Process) ReservedBytes() uint64 {
	var total uint64
	for _, r := range p.regions {
		total += r.Size()
	}
	return total
}

// mapPage establishes a writable mapping for the page at gva.
func (p *Process) mapPage(gva mem.GVA) error {
	gpa := p.k.AllocGuestFrame()
	return p.PT.Map(gva.PageFloor(), gpa,
		pgtable.FlagWritable|pgtable.FlagUser|pgtable.FlagSoftDirty)
}

// handleFault is the kernel's per-process #PF service routine.
func (p *Process) handleFault(gva mem.GVA, write bool) error {
	if _, ok := p.findRegion(gva); !ok {
		return fmt.Errorf("%w: pid %d at %v", ErrSegfault, p.Pid, gva)
	}
	pte, present := p.PT.Lookup(gva)

	// userfaultfd intercepts missing-page and write-protect faults before
	// the kernel's own handling, suspending the faulting thread until the
	// tracker resolves the fault (§III-A).
	if p.ufd != nil {
		if !present && p.ufd.covers(gva, UfdMissing) {
			return p.ufd.raise(p, gva, write, true)
		}
		if present && write && !pte.Writable() && pte.UfdWriteProtected() {
			return p.ufd.raise(p, gva, write, false)
		}
	}

	if !present {
		// Ordinary demand paging.
		sp := p.k.VCPU.Prof.Begin(prof.SubGuestOS, "demand_fault")
		p.k.count(&p.k.ctr.demandFaults, CtrDemandFaults, 1)
		p.k.Clock.Advance(p.k.Model.DemandFault)
		cost := int64(p.k.Model.DemandFault)
		p.k.VCPU.Event(trace.KindDemandFault, p.k.Clock.Nanos()-cost, cost, uint64(gva.PageFloor()), 0)
		err := p.mapPage(gva)
		sp.End()
		return err
	}

	if write && !pte.Writable() {
		// Soft-dirty write-protect fault: the handler sets the soft-dirty
		// bit and restores write permission (§III-B). The cost is the
		// kernel-space page fault handling metric M5.
		sp := p.k.VCPU.Prof.Begin(prof.SubGuestOS, "softdirty_fault")
		p.k.count(&p.k.ctr.softDirtyFaults, CtrSoftDirtyFaults, 1)
		cost := int64(p.k.Model.PFHKernel.PerPage(p.curveSize()))
		p.k.Clock.Advance(time.Duration(cost))
		p.k.VCPU.Event(trace.KindSoftDirtyFault, p.k.Clock.Nanos()-cost, cost, uint64(gva.PageFloor()), 0)
		err := p.PT.SetFlags(gva, pgtable.FlagWritable|pgtable.FlagSoftDirty)
		sp.End()
		return err
	}

	return fmt.Errorf("%w: unexpected fault pid %d at %v (write=%v, pte=%#x)",
		ErrSegfault, p.Pid, gva, write, uint64(pte))
}

// curveSize returns the size at which memory-dependent cost curves are
// evaluated for this process.
func (p *Process) curveSize() uint64 {
	if ws := p.ReservedBytes(); ws > 0 {
		return ws
	}
	return mem.PageSize
}

// releaseAll frees every mapped frame (process exit).
func (p *Process) releaseAll() {
	p.PT.Range(func(gva mem.GVA, pte pgtable.PTE) bool {
		p.k.FreeGuestFrame(pte.GPA())
		return true
	})
	p.PT = pgtable.New()
	p.regions = nil
}

// Pause marks the process stopped (CRIU stop-and-copy).
func (p *Process) Pause() { p.paused = true }

// Resume clears the stopped mark.
func (p *Process) Resume() { p.paused = false }

// Paused reports whether the process is stopped.
func (p *Process) Paused() bool { return p.paused }

// --- memory operations (issued by workload code running as this process) ----

// enter makes p current on the vCPU for one operation and runs the
// scheduler's preemption check first. Switching to a different process is
// a real context switch and fires the notifier chain - the OoH module
// relies on it to move the logging window between tracked processes.
// Accessing a paused process is a workload bug surfaced as ErrProcessPaused.
func (p *Process) enter() error {
	if p.paused {
		return fmt.Errorf("%w: pid %d (%s)", ErrProcessPaused, p.Pid, p.Name)
	}
	p.k.Sched.maybePreempt()
	if p.k.current != p {
		p.k.Sched.switchTo(p)
	}
	return nil
}

// Write stores b at gva in this process's address space.
func (p *Process) Write(gva mem.GVA, b []byte) error {
	if err := p.enter(); err != nil {
		return err
	}
	return p.k.VCPU.Write(gva, b)
}

// WriteShared is Write of src[at:at+n], letting the guest pages it fills
// share src's page-aligned windows (cpu.VCPU.WriteShared); nothing may
// write src while the process may hold it.
func (p *Process) WriteShared(gva mem.GVA, src []byte, at, n int) error {
	if err := p.enter(); err != nil {
		return err
	}
	return p.k.VCPU.WriteShared(gva, src, at, n)
}

// Read loads len(b) bytes at gva.
func (p *Process) Read(gva mem.GVA, b []byte) error {
	if err := p.enter(); err != nil {
		return err
	}
	return p.k.VCPU.Read(gva, b)
}

// WriteU64 stores one 64-bit word.
func (p *Process) WriteU64(gva mem.GVA, v uint64) error {
	if err := p.enter(); err != nil {
		return err
	}
	return p.k.VCPU.WriteU64(gva, v)
}

// ReadU64 loads one 64-bit word.
func (p *Process) ReadU64(gva mem.GVA) (uint64, error) {
	if err := p.enter(); err != nil {
		return 0, err
	}
	return p.k.VCPU.ReadU64(gva)
}

// ReadPage copies the whole page containing gva into a fresh buffer without
// charging guest-mode access costs: used by checkpointing (the dumper reads
// process memory through the kernel, not through the tracked process).
func (p *Process) ReadPage(gva mem.GVA) ([]byte, error) {
	pte, ok := p.PT.Lookup(gva)
	if !ok {
		return nil, fmt.Errorf("%w: %v", pgtable.ErrNotMapped, gva)
	}
	buf := make([]byte, mem.PageSize)
	if err := p.k.VCPU.KernelReadGPA(pte.GPA(), buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// WritePageKernel installs content into the page at gva (restore path),
// mapping it if necessary, without PML logging.
func (p *Process) WritePageKernel(gva mem.GVA, content []byte) error {
	gva = gva.PageFloor()
	pte, ok := p.PT.Lookup(gva)
	if !ok {
		if err := p.mapPage(gva); err != nil {
			return err
		}
		pte, _ = p.PT.Lookup(gva)
	}
	return p.k.VCPU.KernelWriteGPA(pte.GPA(), content)
}
