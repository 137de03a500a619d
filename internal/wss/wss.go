// Package wss implements working-set-size estimation over PML-R: the PML
// extension (Bitchebe et al., cited in §VII) that also logs pages whose
// EPT *accessed* flag transitions during reads, so the hypervisor can see
// every page a VM touches - not only the ones it writes - without page
// faults or EPT scans on the critical path.
//
// The estimator samples in intervals: arm logging with cleared A/D flags,
// let the guest run, drain the log; the number of distinct logged frames
// is the interval's working set. Arming goes through the VM's access log:
// on the "sim" backend it arms real PML-R; the "oracle" backend observes
// EPT walks for free and bounds PML-R's cost from below.
package wss

import (
	"errors"

	"repro/internal/hypervisor"
	"repro/internal/mem"
)

// Sample is one interval's estimate.
type Sample struct {
	Interval int
	// Pages is the number of distinct guest frames touched.
	Pages int
	// Bytes is Pages expressed in bytes.
	Bytes uint64
}

// Estimator samples a VM's working set size.
type Estimator struct {
	VM      *hypervisor.VM
	samples []Sample
	armed   bool
}

// ErrNotArmed reports EndInterval without a matching BeginInterval.
var ErrNotArmed = errors.New("wss: interval not armed")

// New returns an estimator for vm.
func New(vm *hypervisor.VM) *Estimator { return &Estimator{VM: vm} }

// BeginInterval arms PML-R logging with a clean slate: dirty and accessed
// flags cleared so the first touch of every page this interval is logged.
func (e *Estimator) BeginInterval() {
	e.VM.StartAccessLogging()
	e.armed = true
}

// disarm tears down the interval's arming unconditionally: read logging
// off, hypervisor dirty logging off, estimator disarmed. Centralized so
// every EndInterval path - success or error - leaves the VM clean, the way
// criu's abort() does for checkpoint sessions.
func (e *Estimator) disarm() {
	e.VM.StopAccessLogging()
	e.armed = false
}

// EndInterval drains the log and records the interval's estimate. The
// interval is disarmed on every path: a failed collect must not leak
// PML-R arming or hypervisor dirty logging into the caller's next steps.
func (e *Estimator) EndInterval() (Sample, error) {
	if !e.armed {
		return Sample{}, ErrNotArmed
	}
	touched, err := e.VM.CollectAccessed()
	e.disarm()
	if err != nil {
		return Sample{}, err
	}
	s := Sample{
		Interval: len(e.samples) + 1,
		Pages:    len(touched),
		Bytes:    uint64(len(touched)) * mem.PageSize,
	}
	e.samples = append(e.samples, s)
	return s, nil
}

// Samples returns all recorded intervals.
func (e *Estimator) Samples() []Sample { return e.samples }

// Peak returns the largest sampled working set in pages.
func (e *Estimator) Peak() int {
	peak := 0
	for _, s := range e.samples {
		if s.Pages > peak {
			peak = s.Pages
		}
	}
	return peak
}
