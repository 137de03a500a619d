package hypervisor

import (
	"slices"

	"repro/internal/mem"
	"repro/internal/trace"
)

// oracleLog is the hypervisor's second dirty and access log, the one a VM
// gets when its hypervisor is built with NewOracle: a perfect dirty-bit
// oracle on the same simulator core. It observes EPT walks directly -
// every write that commits a dirty flag and every read that commits an
// accessed flag fires a host-side callback - and accumulates the touched
// pages in host maps, charging zero PML cost: no buffer entries, no
// PML-full vmexits, no drains, no VMCS arming.
//
// The result is the idealized lower bound the paper's techniques chase: a
// tracker with ARM-DBM-style "dirty bits for free" semantics and an
// instantaneous harvest. Runs on it answer "how much of a technique's
// overhead is PML mechanics vs. inherent cost of touching memory"; the
// conformance suite runs the tracking/migration tests on it to pin down
// that the *sets* techniques report are backend-invariant even when the
// *costs* differ.
//
// Exactness argument (mirrors the observer contract in internal/ept):
// clearing dirty/accessed flags bumps the EPT generation, which kills
// every cached translation, so after each collect the first touch of each
// page must re-walk and re-fire the observer. No touched page is missed,
// and only genuinely touched pages are reported.
type oracleLog struct {
	vm       *VM
	dirtyOn  bool
	accessOn bool
	dirty    map[mem.GPA]struct{}
	accessed map[mem.GPA]struct{}
}

// installOracle gives vm the oracle log and wires its lifetime EPT
// observers. The on/off gates make start/stop free of EPT surgery (flag
// clears aside). A walk sees the access's in-page offset; the sets hold
// pages.
func (vm *VM) installOracle() {
	o := &oracleLog{vm: vm}
	vm.oracle = o
	vm.EPT.WriteObserver = func(gpa mem.GPA) {
		gpa = gpa.PageFloor()
		if o.dirtyOn {
			if _, seen := o.dirty[gpa]; !seen {
				o.dirty[gpa] = struct{}{}
				o.event(trace.KindPMLLog, uint64(gpa))
			}
		}
		if o.accessOn {
			o.accessed[gpa] = struct{}{}
		}
	}
	vm.EPT.ReadObserver = func(gpa mem.GPA) {
		if o.accessOn {
			o.accessed[gpa.PageFloor()] = struct{}{}
		}
	}
}

// event mirrors the simulator's PML mechanics on the observability
// planes: the same trace kinds and the same metrics bridge observation
// (which is how the monitor's dirty-rate estimators see oracle runs), at
// zero cost - the oracle charges no virtual time, so the record's cost is
// 0 and no clock advances. pml_log marks the first dirty insertion per
// page per interval, like a PML buffer append; pml_drain marks a harvest
// with an Arg of zero ring copies, like a sim drain that routes to the
// migration log rather than a guest ring. The oracle has no buffer, so
// kinds tied to buffer mechanics (pml_full, epml_full_irq, the occupancy
// gauge) stay absent by design; the cross-backend parity test carries
// that allowlist. Without these an oracle run is observationally blind:
// cross-backend diffs would attribute the entire dirty-tracking plane to
// "sim only".
func (o *oracleLog) event(k trace.Kind, addr uint64) {
	o.vm.VCPU.Event(k, o.vm.Clock.Nanos(), 0, addr, 0)
}

// startDirty arms the oracle: a fresh dirty set and cleared EPT dirty
// flags (the generation bump invalidates cached translations, so every
// page's next write re-walks and is observed). No VMCS PML arming - the
// oracle has no buffer to fill.
func (o *oracleLog) startDirty() {
	o.dirty = make(map[mem.GPA]struct{})
	o.dirtyOn = true
	o.vm.EPT.ClearDirty()
}

// stopDirty disarms the oracle and drops its set.
func (o *oracleLog) stopDirty() {
	o.dirtyOn = false
	o.dirty = nil
}

// collectDirty returns the pages written since the last collection in
// ascending order and re-arms: per-page dirty-flag clears (each bumps the
// EPT generation) guarantee the next write per page is observed again.
func (o *oracleLog) collectDirty() []mem.GPA {
	if !o.dirtyOn {
		return nil
	}
	out := sortedPages(o.dirty)
	for _, gpa := range out {
		o.vm.EPT.ClearDirtyPage(gpa)
	}
	o.dirty = make(map[mem.GPA]struct{})
	o.event(trace.KindPMLDrain, 0)
	return out
}

// startAccess arms read+write observation with cleared A/D flags.
func (o *oracleLog) startAccess() {
	o.accessed = make(map[mem.GPA]struct{})
	o.accessOn = true
	o.vm.EPT.ClearDirty()
	o.vm.EPT.ClearAccessed()
}

// stopAccess disarms access observation.
func (o *oracleLog) stopAccess() {
	o.accessOn = false
	o.accessed = nil
}

// collectAccessed returns every page touched since startAccess in
// ascending order and re-arms by clearing both flag planes.
func (o *oracleLog) collectAccessed() []mem.GPA {
	if !o.accessOn {
		return nil
	}
	out := sortedPages(o.accessed)
	o.vm.EPT.ClearDirty()
	o.vm.EPT.ClearAccessed()
	o.accessed = make(map[mem.GPA]struct{})
	return out
}

// sortedPages returns set's pages in ascending order.
func sortedPages(set map[mem.GPA]struct{}) []mem.GPA {
	out := make([]mem.GPA, 0, len(set))
	for gpa := range set {
		out = append(out, gpa)
	}
	slices.Sort(out)
	return out
}
