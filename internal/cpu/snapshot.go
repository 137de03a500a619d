package cpu

import (
	"errors"
	"fmt"

	"repro/internal/mem"
)

// ErrNotQuiescent is returned when a vCPU cannot be captured because live
// runtime wiring (write hooks hold closures over tracker state) would not
// survive a replay.
var ErrNotQuiescent = errors.New("cpu: vCPU not quiescent for snapshot")

// Snapshot is the vCPU's captured architectural state. The software TLB
// is a performance artifact, not state: Restore flushes it and later walks
// refill it. The observability handles (tracer, Met, Prof, Mon, Inj) and
// the EPT/VMCS/Phys wiring are owned by the embedding VM and are not
// captured here.
type Snapshot struct {
	mode        Mode
	kernelMode  bool
	epmlVector  int
	pmlLogReads bool
	epmlBufGPA  mem.GPA
	counters    map[string]int64
}

// CaptureSnapshot captures the vCPU's architectural state. It fails when
// write hooks are registered: hooks are closures into technique state that
// a restore could not reconstruct, so trackers must detach first.
func (v *VCPU) CaptureSnapshot() (*Snapshot, error) {
	if n := len(v.writeHooks); n != 0 {
		return nil, fmt.Errorf("%w: %d write hooks registered", ErrNotQuiescent, n)
	}
	return &Snapshot{
		mode:        v.mode,
		kernelMode:  v.kernelMode,
		epmlVector:  v.EPMLVector,
		pmlLogReads: v.PMLLogReads,
		epmlBufGPA:  v.epmlBufGPA,
		counters:    v.Counters.Snapshot(),
	}, nil
}

// RestoreSnapshot rewinds the vCPU to a captured state and flushes the
// software TLB. The guest page table (CR3) is owned by the guest kernel,
// which re-installs it via SetAddressSpace during its own restore. The
// hot-path counter handles stay: Counters.Restore rewrites the counters
// they point at in place.
func (v *VCPU) RestoreSnapshot(s *Snapshot) {
	v.mode = s.mode
	v.kernelMode = s.kernelMode
	v.EPMLVector = s.epmlVector
	v.PMLLogReads = s.pmlLogReads
	v.epmlBufGPA = s.epmlBufGPA
	v.Counters.Restore(s.counters)
	v.tlb.flush()
}
