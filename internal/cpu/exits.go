package cpu

import "repro/internal/mem"

// ExitReason enumerates the vmexit causes the simulator models.
type ExitReason int

// Exit reasons.
const (
	// ExitPMLFull: the hypervisor-level PML buffer overflowed (PML index
	// underflow). The handler drains the buffer and resets the index.
	ExitPMLFull ExitReason = iota
	// ExitEPTViolation: a guest physical access hit an unmapped EPT entry.
	// The handler allocates a host frame and maps it (demand allocation).
	ExitEPTViolation
	// ExitHypercall: the guest executed a hypercall instruction.
	ExitHypercall
	// ExitVMAccess: the guest executed vmread/vmwrite not covered by the
	// shadow VMCS bitmaps.
	ExitVMAccess
)

func (r ExitReason) String() string {
	switch r {
	case ExitPMLFull:
		return "PML_FULL"
	case ExitEPTViolation:
		return "EPT_VIOLATION"
	case ExitHypercall:
		return "HYPERCALL"
	case ExitVMAccess:
		return "VM_ACCESS"
	}
	return "UNKNOWN"
}

// Exit carries the parameters of one vmexit to the hypervisor.
type Exit struct {
	Reason ExitReason
	GPA    mem.GPA  // ExitEPTViolation: faulting guest physical address
	Write  bool     // ExitEPTViolation: access was a write
	Nr     int      // ExitHypercall: hypercall number
	Args   []uint64 // ExitHypercall: arguments
}

// ExitHandler is implemented by the hypervisor. HandleExit runs in vmx root
// mode; its return value is delivered to the guest as the hypercall result.
// The exit is passed by value, so that a vmexit allocates nothing.
type ExitHandler interface {
	HandleExit(v *VCPU, e Exit) (uint64, error)
}

// FaultHandler is implemented by the guest kernel: it receives guest page
// faults (#PF) raised by the MMU and must establish a usable mapping (or
// return an error, which aborts the faulting access).
type FaultHandler interface {
	HandlePageFault(v *VCPU, gva mem.GVA, write bool) error
}

// IRQSink is implemented by the guest kernel: posted interrupts (EPML's
// self-IPI on guest-buffer full) are delivered here without any vmexit.
type IRQSink interface {
	DeliverIRQ(vector int)
}
