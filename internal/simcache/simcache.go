// Package simcache holds the global enable switch for the simulator's
// four host-side acceleration caches: the vCPU software TLB (the vCPU's
// only host cache), the page table's paging-structure cache, the page
// table's incremental GPA->GVA reverse index, and the workloads'
// process-wide input memo (generated inputs and the pure function of an
// input that is immutable after Setup).
//
// The caches are pure host-side optimizations: on or off, the simulation
// must produce byte-identical traces, metrics snapshots and profiles (the
// cross-check suite in internal/experiments pins this). The switch exists
// so that equivalence is testable: DisableAll turns every cache off, which
// is also how the reverse index's index-vs-scan test reaches the scan.
// Production runs leave it on.
//
// The switch is a plain package-level boolean, matching the simulator's
// single-goroutine-per-machine discipline: it is read on hot paths with
// no synchronization and must only be toggled while no machine is running
// (tests toggle it between runs, restoring via defer).
package simcache

var enabled = true

// Enabled reports whether the acceleration caches are on.
func Enabled() bool { return enabled }

// DisableAll turns every cache off and returns a function restoring the
// previous state; tests use it as `defer simcache.DisableAll()()`.
func DisableAll() (restore func()) {
	prev := enabled
	enabled = false
	return func() { enabled = prev }
}
