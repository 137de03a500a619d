package tracking

import (
	"errors"
	"time"

	"repro/internal/costmodel"
	"repro/internal/guestos"
	"repro/internal/mem"
	"repro/internal/pgtable"
	"repro/internal/trace"
)

// UfdTechnique tracks dirty pages with userfaultfd in write_protect mode
// (§III-A): Init registers the tracked process's regions and write-protects
// them; each first write then suspends the tracked thread, notifies this
// tracker in userspace, is recorded, and the page is write-unprotected;
// Collect returns the record and re-protects those pages.
type UfdTechnique struct {
	k    *guestos.Kernel
	proc *guestos.Process
	// order lists the pages faulted this round. It needs no duplicate
	// check: a fault leaves its page writable until Collect re-protects
	// it, so a page faults at most once per round.
	order []mem.GVA
	stats Stats
	w     watch
}

// NewUfd returns the ufd technique for the process.
func NewUfd(proc *guestos.Process) *UfdTechnique {
	return &UfdTechnique{
		k:    proc.Kernel(),
		proc: proc,
		w:    watch{clock: proc.Kernel().Clock, vcpu: proc.Kernel().VCPU},
	}
}

// Name implements Technique.
func (t *UfdTechnique) Name() string { return "ufd" }

// Kind implements Technique.
func (t *UfdTechnique) Kind() costmodel.Technique { return costmodel.Ufd }

// Init implements Technique: UFFDIO_REGISTER in missing+write-protect mode
// and write-protect every present page. The missing mode is what covers
// pages populated after registration (fresh heap growth) - with pure
// write-protect mode those would be dirtied invisibly.
func (t *UfdTechnique) Init() error {
	return t.w.phase(&t.stats.InitTime, trace.KindTrackInit, t.Kind(), nil, func() error {
		for _, r := range t.proc.Regions() {
			mode := guestos.UfdMissing | guestos.UfdWriteProtect
			if err := t.proc.UfdRegister(r, mode, t.handle); err != nil {
				return err
			}
		}
		return nil
	})
}

// handle runs in the tracker when the tracked thread faults: record the
// page, then resolve - install a zero page for missing faults, lift the
// protection for write-protect faults - so the tracked thread resumes.
// The userspace handling cost (M6 per fault) is both the tracked thread's
// suspension and the tracker's own work; it accrues to CollectTime.
func (t *UfdTechnique) handle(ev guestos.UfdEvent) error {
	start := t.k.Clock.Nanos()
	t.k.Clock.Advance(t.k.Model.PFHUser.PerPage(ev.Proc.ReservedBytes()))
	page := ev.GVA.PageFloor()
	t.order = append(t.order, page)
	var err error
	if ev.Missing {
		err = ev.Proc.UfdCopyZero(page)
	} else {
		err = ev.Proc.UfdWriteUnprotect(page)
	}
	cost := t.k.Clock.Nanos() - start
	t.stats.CollectTime += time.Duration(cost)
	if err == nil {
		arg := int64(0)
		if ev.Missing {
			arg = 1
		}
		t.k.VCPU.Event(trace.KindUfdFault, start, cost, uint64(page), arg)
	}
	return err
}

// Collect implements Technique: hand over the recorded set and re-protect
// those pages for the next round. A page unmapped since its fault fails
// its re-protect ioctl (still charged) and is dropped, as the other
// techniques drop such a page.
func (t *UfdTechnique) Collect() ([]mem.GVA, error) {
	var out []mem.GVA
	err := t.w.phase(&t.stats.CollectTime, trace.KindTrackCollect, t.Kind(),
		func() int64 { return int64(len(out)) }, func() error {
			out = make([]mem.GVA, 0, len(t.order))
			for _, gva := range t.order {
				if err := t.proc.UfdWriteProtect(gva); err != nil {
					if !errors.Is(err, pgtable.ErrNotMapped) {
						return err
					}
					continue
				}
				out = append(out, gva)
			}
			t.order = t.order[:0]
			return nil
		})
	if err != nil {
		return nil, err
	}
	t.stats.Collections++
	t.stats.Reported += int64(len(out))
	return out, nil
}

// Close implements Technique: unregister and restore write access.
func (t *UfdTechnique) Close() error {
	return t.w.phase(&t.stats.CloseTime, trace.KindTrackClose, t.Kind(), nil, func() error {
		for _, r := range t.proc.Regions() {
			t.proc.UfdUnregister(r)
			for gva := r.Start; gva < r.End; gva = gva.Add(mem.PageSize) {
				if pte, ok := t.proc.PT.Lookup(gva); ok && pte.UfdWriteProtected() {
					if err := t.proc.UfdWriteUnprotect(gva); err != nil {
						return err
					}
				}
			}
		}
		return nil
	})
}

// Stats implements Technique.
func (t *UfdTechnique) Stats() Stats { return t.stats }
