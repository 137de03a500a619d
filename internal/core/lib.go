package core

import (
	"fmt"
	"time"

	"repro/internal/guestos"
	"repro/internal/hypervisor"
	"repro/internal/mem"
	"repro/internal/pgtable"
	"repro/internal/prof"
	"repro/internal/trace"
)

// Lib is the userspace half of the OoH UIO driver: the template code a
// Tracker embeds (§IV-B). One Lib serves one guest; sessions are opened per
// tracked PID.
type Lib struct {
	mod *Module
}

// NewLib returns the userspace library bound to a loaded module.
func NewLib(mod *Module) *Lib { return &Lib{mod: mod} }

// Module returns the underlying kernel module.
func (l *Lib) Module() *Module { return l.mod }

// Session is a Tracker's handle on one tracked process.
type Session struct {
	lib  *Lib
	pid  guestos.Pid
	s    *session
	open bool

	// ReuseReverseIndex caches the GPA->GVA reverse index across Fetch
	// calls (SPML only). The paper's Boehm integration does exactly this:
	// "During the following cycles, Boehm just reuses the addresses
	// collected during the first cycle" (footnote 2), which is why only
	// the first GC cycle pays the reverse-mapping price in Fig. 5. The
	// cache is sound only while the tracked process's mappings are stable
	// (a GC heap); CRIU leaves it off.
	ReuseReverseIndex bool
	revIndex          map[mem.GPA]mem.GVA

	// FetchBreakdown of the last Fetch call, for Fig. 3.
	LastBreakdown FetchBreakdown

	// raw and dirty are Fetch's scratch space, reused across calls: the
	// drained ring entries, and the SPML de-duplication set.
	raw   []uint64
	dirty mem.PageSet
}

// FetchBreakdown decomposes one collection into the paper's Fig. 3 steps.
type FetchBreakdown struct {
	RingCopy   time.Duration // draining ring entries (M18)
	PTWalk     time.Duration // pagemap walk building the reverse index (M16)
	ReverseMap time.Duration // GPA->GVA lookups (M17)
	Entries    int           // addresses returned
}

// Total returns the collection's total time.
func (b FetchBreakdown) Total() time.Duration { return b.RingCopy + b.PTWalk + b.ReverseMap }

// Open starts tracking pid and returns the session handle.
func (l *Lib) Open(pid guestos.Pid) (*Session, error) {
	if err := l.mod.Register(pid); err != nil {
		return nil, err
	}
	s, _ := l.mod.Session(pid)
	return &Session{lib: l, pid: pid, s: s, open: true}, nil
}

// Close stops tracking.
func (s *Session) Close() error {
	if !s.open {
		return nil
	}
	s.open = false
	return s.lib.mod.Unregister(s.pid)
}

// Fetch returns the dirty page GVAs accumulated since the previous Fetch
// (or since Open), de-duplicated, and re-arms logging for those pages.
//
// SPML (§IV-C): a drain hypercall moves the partial PML buffer into the
// ring and re-arms the EPT dirty flags; the ring then yields GPAs that the
// library reverse-maps to GVAs by parsing the page table through /proc -
// the dominant cost the paper attributes to SPML (M17, Fig. 3).
//
// EPML (§IV-D): the ring already contains GVAs; the library only drains it
// and clears the guest PTE dirty bits to re-arm the walk-circuit logging.
func (s *Session) Fetch() ([]mem.GVA, error) {
	if !s.open {
		return nil, fmt.Errorf("%w: %d", ErrNotTracked, s.pid)
	}
	mod := s.lib.mod
	k := mod.K
	clock := k.Clock
	s.LastBreakdown = FetchBreakdown{}
	fetchSp := k.VCPU.Prof.Begin(prof.SubCore, "fetch")
	defer fetchSp.End()

	switch mod.Mode {
	case ModeSPML:
		// Flush the hardware buffer into this process's ring and re-arm
		// EPT dirty flags for everything we are about to consume.
		if _, err := k.VCPU.Hypercall(hypervisor.HCDrainRing, uint64(s.pid)); err != nil {
			return nil, err
		}
		sp := k.VCPU.Begin(prof.SubCore, "ring_copy")
		s.raw = s.s.ring.Drain(s.raw[:0])
		raw := s.raw
		perEntry := k.Model.RBCopy.PerPage(s.s.proc.ReservedBytes())
		clock.Advance(perEntry * time.Duration(len(raw)))
		s.LastBreakdown.RingCopy = sp.Event(trace.KindRingCopy, 0, int64(len(raw)))

		if len(raw) == 0 {
			return nil, nil
		}

		// Reverse mapping: one pagemap pass over the address space (charged
		// as the userspace PT walk, M16), then each logged GPA is resolved
		// (charged as M17). With ReuseReverseIndex a materialized index
		// survives across fetches and only the first call pays. Without it,
		// the walk's cost and observability are charged via PagemapWalkCharge
		// and each GPA resolves through the page table's own reverse index -
		// the simulated work is identical, the host work drops from
		// O(pages) to O(logged entries).
		var lookup func(gpa mem.GPA) (mem.GVA, bool)
		cached := s.ReuseReverseIndex && s.revIndex != nil
		switch {
		case cached:
			index := s.revIndex
			lookup = func(gpa mem.GPA) (mem.GVA, bool) {
				gva, ok := index[gpa.PageFloor()]
				return gva, ok
			}
		case s.ReuseReverseIndex:
			sp := k.VCPU.Begin(prof.SubCore, "pt_walk")
			entries, err := k.Pagemap(s.pid)
			if err != nil {
				sp.End()
				return nil, err
			}
			index := make(map[mem.GPA]mem.GVA, len(entries))
			for _, e := range entries {
				if e.Present {
					index[e.GPA.PageFloor()] = e.GVA
				}
			}
			s.LastBreakdown.PTWalk = sp.Event(trace.KindPTWalk, 0, int64(len(entries)))
			s.revIndex = index
			lookup = func(gpa mem.GPA) (mem.GVA, bool) {
				gva, ok := index[gpa.PageFloor()]
				return gva, ok
			}
		default:
			sp := k.VCPU.Begin(prof.SubCore, "pt_walk")
			pages, err := k.PagemapWalkCharge(s.pid)
			if err != nil {
				sp.End()
				return nil, err
			}
			s.LastBreakdown.PTWalk = sp.Event(trace.KindPTWalk, 0, int64(pages))
			pt := s.s.proc.PT
			lookup = func(gpa mem.GPA) (mem.GVA, bool) {
				gva, ok := pt.ReverseLookup(gpa.PageFloor())
				return gva, ok
			}
		}

		rmSp := k.VCPU.Begin(prof.SubCore, "reverse_map")
		perLookup := k.Model.ReverseMap.PerPage(s.s.proc.ReservedBytes())
		if cached {
			perLookup = k.Model.KernelPageOp
		}
		s.dirty.Reset()
		for _, r := range raw {
			clock.Advance(perLookup)
			gva, ok := lookup(mem.GPA(r))
			if !ok {
				continue // page unmapped since it was logged
			}
			s.dirty.Add(gva)
		}
		out := append([]mem.GVA(nil), s.dirty.Pages()...)
		s.LastBreakdown.ReverseMap = rmSp.Event(trace.KindReverseMap, 0, int64(len(out)))
		s.LastBreakdown.Entries = len(out)
		return out, nil

	case ModeEPML:
		// Pull in anything still sitting in the guest-level buffer.
		s.s.drainGuestBuffer()
		sp := k.VCPU.Begin(prof.SubCore, "ring_copy")
		s.raw = s.s.ring.Drain(s.raw[:0])
		raw := s.raw
		perEntry := k.Model.RBCopy.PerPage(s.s.proc.ReservedBytes())
		clock.Advance(perEntry * time.Duration(len(raw)))
		out := make([]mem.GVA, 0, len(raw))
		for _, r := range raw {
			gva := mem.GVA(r)
			// Harden against stale ring generations: a legitimately logged
			// page always has its guest PTE dirty bit set (the walk circuit
			// sets it in the same micro-op that logs), so an entry whose PTE
			// is absent or clean is left over from a buffer the guest failed
			// to reset (e.g. a faulted index vmwrite) and must not be
			// reported. The same filter drops a duplicate entry: the first
			// copy cleared the page's dirty bit below. On fault-free runs it
			// rejects nothing else.
			if pte, ok := s.s.proc.PT.Lookup(gva); !ok || !pte.Dirty() {
				continue
			}
			out = append(out, gva)
			// Re-arm: clear the guest PTE dirty bit so the next write
			// to this page is logged again.
			_ = s.s.proc.PT.ClearFlags(gva, pgtable.FlagDirty)
			clock.Advance(k.Model.KernelPageOp)
		}
		s.LastBreakdown.RingCopy = sp.Event(trace.KindRingCopy, 0, int64(len(raw)))
		s.LastBreakdown.Entries = len(out)
		return out, nil
	}
	return nil, fmt.Errorf("core: unknown mode %v", mod.Mode)
}
