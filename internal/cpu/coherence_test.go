package cpu

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/ept"
	"repro/internal/mem"
	"repro/internal/pgtable"
	"repro/internal/sim"
	"repro/internal/simcache"
	"repro/internal/vmcs"
)

// coherenceRig is a vCPU over two guest page tables and one EPT whose
// handlers are deterministic, so a random sequence replays identically.
// snap is the last capture of phys, which a later step restores in place.
type coherenceRig struct {
	phys *mem.PhysMem
	snap *mem.Snapshot
	v    *VCPU
	pts  [2]*pgtable.Table
	log  strings.Builder
}

// HandleExit demand-maps EPT violations and drains the PML buffer on full.
func (r *coherenceRig) HandleExit(v *VCPU, e Exit) (uint64, error) {
	switch e.Reason {
	case ExitEPTViolation:
		hpa, err := r.phys.AllocFrame()
		if err != nil {
			return 0, err
		}
		return 0, v.EPT.Map(e.GPA.PageFloor(), hpa)
	case ExitPMLFull:
		return 0, r.drainPML()
	}
	return 0, nil
}

// HandlePageFault demand-maps an absent page onto a frame picked from its
// GVA (so frames alias across pages and tables) and lifts write protection
// from a present page, the soft-dirty handler's job.
func (r *coherenceRig) HandlePageFault(v *VCPU, gva mem.GVA, write bool) error {
	pte, ok := v.GuestPT.Lookup(gva)
	if !ok {
		gpa := mem.GPA(1+uint64(gva.PageFloor())%13) * mem.PageSize
		return v.GuestPT.Map(gva.PageFloor(), gpa, pgtable.FlagWritable)
	}
	if write && !pte.Writable() {
		return v.GuestPT.SetFlags(gva, pgtable.FlagWritable)
	}
	return fmt.Errorf("spurious fault at %v", gva)
}

// drainPML logs every buffered PML entry and resets the index.
func (r *coherenceRig) drainPML() error {
	idx, err := r.v.VMCS.Read(vmcs.FieldPMLIndex)
	if err != nil {
		return err
	}
	buf, err := r.v.VMCS.Read(vmcs.FieldPMLAddress)
	if err != nil {
		return err
	}
	fmt.Fprintf(&r.log, "pml[")
	for slot := (idx + 1) & 0xFFFF; slot <= vmcs.PMLResetIndex; slot++ {
		gpa, err := r.phys.ReadU64(mem.HPA(buf) + mem.HPA(slot*8))
		if err != nil {
			return err
		}
		fmt.Fprintf(&r.log, " %#x", gpa)
	}
	fmt.Fprintf(&r.log, " ]\n")
	return r.v.VMCS.Write(vmcs.FieldPMLIndex, vmcs.PMLResetIndex)
}

// coherenceGVAs spans two pages apart in one 2 MiB region, the next
// region, and a region under another page directory, so walks both share
// and miss the paging-structure cache.
var coherenceGVAs = []mem.GVA{
	0x1000, 0x2000, 0x3000, 0x9000,
	0x200000, 0x201000,
	0x40000000,
}

// runCoherence replays the sequence seeded by seed and returns everything
// it observed: values read, errors, PML entries, and at the end the
// counters, the clock, every PTE and EPT entry with its A/D flags, and the
// bytes of every EPT-mapped frame.
func runCoherence(t *testing.T, seed int64, steps int) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	r := &coherenceRig{phys: mem.NewPhysMem(0)}
	r.pts = [2]*pgtable.Table{pgtable.New(), pgtable.New()}
	buf, err := r.phys.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	vm := vmcs.New()
	mustWrite(t, vm, vmcs.FieldPMLAddress, uint64(buf))
	r.v = &VCPU{
		Clock: &sim.Clock{},
		Phys:  r.phys,
		VMCS:  vm,
		EPT:   ept.New(),
		Costs: Costs{WriteOp: 3, ReadOp: 2, VMExit: 50 * time.Nanosecond,
			VMEntry: 40 * time.Nanosecond, PMLLog: 7},
	}
	r.v.Exits, r.v.Fault = r, r
	r.v.SetAddressSpace(r.pts[0])

	gva := func() mem.GVA { return coherenceGVAs[rng.Intn(len(coherenceGVAs))] }
	gpa := func() mem.GPA { return mem.GPA(1+rng.Intn(13)) * mem.PageSize }
	pt := func() (int, *pgtable.Table) { i := rng.Intn(2); return i, r.pts[i] }
	flags := func() pgtable.PTE {
		return []pgtable.PTE{pgtable.FlagWritable, pgtable.FlagAccessed, pgtable.FlagDirty,
			pgtable.FlagAccessed | pgtable.FlagDirty}[rng.Intn(4)]
	}
	for step := 0; step < steps; step++ {
		fmt.Fprintf(&r.log, "%d: ", step)
		switch op := rng.Intn(22); {
		case op < 6:
			a := gva() + mem.GVA(8*rng.Intn(8))
			val := rng.Uint64()
			fmt.Fprintf(&r.log, "write %v %#x: %v", a, val, r.v.WriteU64(a, val))
		case op < 11:
			a := gva() + mem.GVA(8*rng.Intn(8))
			val, err := r.v.ReadU64(a)
			fmt.Fprintf(&r.log, "read %v = %#x %v", a, val, err)
		case op == 11:
			i, p := pt()
			a, g := gva(), gpa()
			fmt.Fprintf(&r.log, "pt%d map %v -> %v: %v", i, a, g, p.Map(a, g, flags()|pgtable.FlagWritable))
		case op == 12:
			i, p := pt()
			a := gva()
			old, err := p.Unmap(a)
			fmt.Fprintf(&r.log, "pt%d unmap %v = %#x %v", i, a, uint64(old), err)
		case op == 13:
			i, p := pt()
			a, f := gva(), flags()
			fmt.Fprintf(&r.log, "pt%d clear %v %#x: %v", i, a, uint64(f), p.ClearFlags(a, f))
		case op == 14:
			i, p := pt()
			a, f := gva(), flags()
			fmt.Fprintf(&r.log, "pt%d set %v %#x: %v", i, a, uint64(f), p.SetFlags(a, f))
		case op == 15:
			switch rng.Intn(3) {
			case 0:
				fmt.Fprintf(&r.log, "ept clear dirty = %d", r.v.EPT.ClearDirty())
			case 1:
				g := gpa()
				r.v.EPT.ClearDirtyPage(g)
				fmt.Fprintf(&r.log, "ept clear dirty %v", g)
			default:
				fmt.Fprintf(&r.log, "ept clear accessed = %d", r.v.EPT.ClearAccessed())
			}
		case op == 16:
			i, p := pt()
			r.v.SetAddressSpace(p)
			fmt.Fprintf(&r.log, "cr3 pt%d", i)
		case op == 17:
			on := rng.Intn(2) == 0
			r.v.VMCS.SetPMLEnabled(on)
			r.v.PMLLogReads = rng.Intn(2) == 0
			fmt.Fprintf(&r.log, "pml %v reads %v", on, r.v.PMLLogReads)
		case op == 18:
			// A capture freezes every chunk: a write must not reach a
			// frozen chunk, or the restore below brings it back.
			r.snap = r.phys.CaptureSnapshot()
			fmt.Fprintf(&r.log, "capture %d frames", r.snap.FrameCount())
		case op == 19:
			// The EPT keeps mappings of frames the restore frees: accesses
			// to them fail, and later allocations reuse them.
			if r.snap == nil {
				fmt.Fprintf(&r.log, "restore: no capture")
				break
			}
			r.phys.RestoreSnapshot(r.snap)
			fmt.Fprintf(&r.log, "restore %d frames", r.phys.FrameCount())
		default:
			fmt.Fprintf(&r.log, "drain: %v", r.drainPML())
		}
		r.log.WriteByte('\n')
	}
	if err := r.drainPML(); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&r.log, "counters %s\nclock %d\n", r.v.Counters.String(), r.v.Clock.Nanos())
	for i, p := range r.pts {
		p.Range(func(a mem.GVA, pte pgtable.PTE) bool {
			fmt.Fprintf(&r.log, "pt%d %v %#x\n", i, a, uint64(pte))
			return true
		})
	}
	r.v.EPT.Range(func(g mem.GPA, e ept.Entry) bool {
		fmt.Fprintf(&r.log, "ept %v %#x\n", g, uint64(e))
		return true
	})
	r.v.EPT.Range(func(g mem.GPA, e ept.Entry) bool {
		b, err := r.phys.FrameBytes(e.HPA())
		fmt.Fprintf(&r.log, "frame %v %x %v\n", g, bytes.TrimRight(b, "\x00"), err)
		return true
	})
	return r.log.String()
}

// TestTranslationCachesDifferential is the translation-coherence property:
// random guest page-table, EPT, CR3, PML-arming, capture, in-place restore
// and access sequences observe exactly the same with the translation
// caches (the software TLB and the paging-structure cache) on as under
// simcache.DisableAll, down to the bytes of every mapped frame. A host
// frame kept across a capture or a restore would write into a frozen
// chunk or a discarded one, and the frames or a later read would differ.
func TestTranslationCachesDifferential(t *testing.T) {
	seeds, steps := 300, 400
	if testing.Short() {
		seeds = 60
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		cached := runCoherence(t, seed, steps)
		restore := simcache.DisableAll()
		uncached := runCoherence(t, seed, steps)
		restore()
		if cached != uncached {
			c, u := strings.Split(cached, "\n"), strings.Split(uncached, "\n")
			for i := range c {
				if i >= len(u) || c[i] != u[i] {
					other := "<missing>"
					if i < len(u) {
						other = u[i]
					}
					t.Fatalf("seed %d diverges at line %d:\n cached:   %s\n uncached: %s", seed, i, c[i], other)
				}
			}
			t.Fatalf("seed %d: uncached run has %d extra lines", seed, len(u)-len(c))
		}
	}
}
