// Package hv is the hypervisor abstraction seam of the reproduction: the
// narrow interface that machine, migration, wss and the experiment drivers
// program against, with concrete backends registered behind it.
//
// The paper's contribution is exposing a hardware tracking feature (PML)
// through a clean hypervisor/guest contract; this package is that contract
// on the host side, shaped after how tinyrange/cc abstracts KVM/HVF/WHP:
// a Hypervisor creates VirtualMachines, a VirtualMachine exposes its
// VirtualCPU and snapshot/restore, and optional capabilities (DirtyLog,
// AccessLog) are discovered by type assertion - exactly like querying a
// KVM_CAP. Two backends register at import time:
//
//   - "sim" (package hvsim): the cycle-accurate PML simulator - vmexits,
//     PML buffer drains, hypercall costs, the works.
//   - "oracle" (package hvoracle): a perfect dirty-bit oracle layered on
//     the same simulator core. It observes EPT write walks directly and
//     charges no PML cost at all, giving a lower bound to compare every
//     real technique against (the ARM-DBM-style "scan dirty bits for
//     free" ideal).
package hv

import (
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/costmodel"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config carries what every backend needs to build a Hypervisor.
type Config struct {
	// HostMemBytes bounds simulated host DRAM (0 = unlimited).
	HostMemBytes uint64
	// Model is the calibrated cost model; nil means the backend default.
	Model *costmodel.Model
	// Phys, when non-nil, is a pre-built host physical memory the backend
	// adopts instead of allocating its own - the snapshot-fork path hands
	// a copy-on-write forked image in here. HostMemBytes is ignored then.
	Phys *mem.PhysMem
}

// Hypervisor is one host-wide hypervisor instance.
type Hypervisor interface {
	// Name returns the backend's registered name.
	Name() string
	// Phys returns the host physical memory all VMs share.
	Phys() *mem.PhysMem
	// Model returns the cost model the backend charges from.
	Model() *costmodel.Model
	// CreateVM builds a VM with one vCPU.
	CreateVM() (VirtualMachine, error)
	// VMs returns the created VMs in creation order.
	VMs() []VirtualMachine
}

// VirtualMachine is one VM. Optional capabilities - DirtyLog, AccessLog -
// are discovered by type assertion.
type VirtualMachine interface {
	// ID returns the VM's stable identifier.
	ID() int
	// Clock returns the VM's virtual clock.
	Clock() *sim.Clock
	// VCPU returns the VM's (single) virtual CPU.
	VCPU() VirtualCPU
	// MappedCount returns the number of mapped guest frames.
	MappedCount() int
	// MappedPages returns the mapped guest frames in ascending GPA order.
	MappedPages() []mem.GPA
	// CaptureSnapshot captures the VM's state above physical memory. It
	// fails when live wiring (rings, write hooks) makes the VM
	// non-quiescent.
	CaptureSnapshot() (Snapshot, error)
	// RestoreSnapshot rewinds the VM to a captured state. Physical memory
	// is restored separately (the machine layer composes the two).
	RestoreSnapshot(snap Snapshot) error
}

// Snapshot is an opaque backend-specific VM snapshot handle: only the
// backend that captured it can restore it.
type Snapshot interface{}

// VirtualCPU exposes the per-vCPU state consumers need: identity, the
// virtual clock, the observability planes, and the kernel-mode physical
// access path (which bypasses guest translation and dirty logging on every
// backend, like a hypervisor-side memcpy).
type VirtualCPU interface {
	ID() int
	Clock() *sim.Clock
	Counters() *sim.Counters
	Injector() *faults.Injector
	// Metrics is the bridge for labelled extras (Count, SetGauge); events
	// go through Event, which feeds the trace and the metrics together.
	Metrics() *metrics.Events
	Profiler() *prof.Tap
	Monitor() *monitor.Monitor
	// Event reports one event of kind k: a trace record {TS: ts, Cost:
	// cost, Addr: addr, Arg: arg} when k is traced, and one metrics
	// observation at the clock's current time (no-op when both are off).
	Event(k trace.Kind, ts, cost int64, addr uint64, arg int64)
	// FaultRecord reports the event for an injected fault that fired at
	// this vCPU (no-op when observability is off).
	FaultRecord(p faults.Point, addr uint64)
	KernelReadGPA(gpa mem.GPA, b []byte) error
	KernelWriteGPA(gpa mem.GPA, b []byte) error
}

// DirtyLog is the hypervisor-level dirty page tracking capability (live
// migration's pre-copy loop). CollectDirty returns the pages dirtied since
// the previous collection in ascending GPA order and re-arms tracking for
// them; a failed collect loses nothing (the log survives for a retry).
type DirtyLog interface {
	StartDirtyLogging()
	StopDirtyLogging()
	CollectDirty() ([]mem.GPA, error)
}

// AccessLog is the read+write page tracking capability behind working-set
// estimation (the PML-R extension): CollectAccessed returns every page
// touched - read or written - since StartAccessLogging, sorted.
type AccessLog interface {
	StartAccessLogging()
	StopAccessLogging()
	CollectAccessed() ([]mem.GPA, error)
}

// Forker is the optional Hypervisor capability behind VM forking: it
// replays a captured VM Snapshot into this hypervisor's (typically
// copy-on-write forked) physical memory as a newly installed VM.
type Forker interface {
	NewVMFromSnapshot(snap Snapshot) (VirtualMachine, error)
}

// ErrForeignSnapshot builds the error a backend returns when asked to
// restore a Snapshot it did not capture (snapshots never cross backends).
func ErrForeignSnapshot(backend string, snap Snapshot) error {
	return fmt.Errorf("hv: backend %q cannot restore snapshot of type %T", backend, snap)
}

// Factory builds a backend Hypervisor.
type Factory func(Config) (Hypervisor, error)

var (
	regMu    sync.Mutex
	backends = map[string]Factory{}
)

// Register installs a backend factory under name. Backends call it from
// package init; a duplicate name panics (two packages claiming one name is
// a build-wiring bug).
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := backends[name]; dup {
		panic(fmt.Sprintf("hv: backend %q registered twice", name))
	}
	backends[name] = f
}

// Backends returns the registered backend names, sorted.
func Backends() []string {
	regMu.Lock()
	defer regMu.Unlock()
	names := make([]string, 0, len(backends))
	for name := range backends {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// DefaultBackend returns the backend used when none is named: the
// OOH_BACKEND environment variable when set (the conformance CI runs every
// suite under each value), otherwise "sim".
func DefaultBackend() string {
	if name := os.Getenv("OOH_BACKEND"); name != "" {
		return name
	}
	return "sim"
}

// New builds the named backend ("" means DefaultBackend).
func New(name string, cfg Config) (Hypervisor, error) {
	if name == "" {
		name = DefaultBackend()
	}
	regMu.Lock()
	f := backends[name]
	regMu.Unlock()
	if f == nil {
		return nil, fmt.Errorf("hv: unknown backend %q (have %v)", name, Backends())
	}
	return f(cfg)
}
