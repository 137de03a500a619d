// Package simcache holds the global enable switches for the simulator's
// host-side acceleration caches: the vCPU software TLB and the page
// table's paging-structure cache, the page table's incremental GPA->GVA
// reverse index, the vCPU's cached VMCS arming state, and workload
// host-compute memoization.
//
// The caches are pure host-side optimizations: with the switches on or off
// the simulation must produce byte-identical traces, metrics snapshots and
// profiles (the cross-check suite in internal/experiments pins this). The
// switches exist so that equivalence is testable: DisableAll turns every
// cache off, which is also how the reverse index's index-vs-scan test
// reaches the scan. Production runs leave everything enabled.
//
// The switches are plain package-level booleans, matching the simulator's
// single-goroutine-per-machine discipline: they are read on hot paths with
// no synchronization and must only be toggled while no machine is running
// (tests toggle them between runs, restoring via defer).
package simcache

var (
	// tlb enables the per-vCPU GVA translation cache (internal/cpu) and
	// the page table's paging-structure cache (internal/pgtable).
	tlb = true
	// reverseIndex enables pgtable's incremental GPA->GVA index, making
	// ReverseLookup O(1) host work instead of an O(present-pages) scan.
	reverseIndex = true
	// armCache enables the vCPU's cached VMCS arming state (PMLEnabled /
	// epmlArmed), refreshed via VMCS generation counters instead of being
	// re-read from the field storage on every guest write.
	armCache = true
	// workloadMemo enables workload-level host-compute memoization: one
	// process-wide memo of workload inputs, shared by every instance and
	// sweep cell on the same input, keeps string-match's generated text
	// and the pure function of an input that is immutable after Setup
	// (string-match's matches, histogram's bins, PCA's means and banded
	// covariance). Guest memory reads and writes still execute every pass
	// (virtual clock, accessed bits and read logging are unchanged); only
	// redundant host arithmetic is skipped.
	workloadMemo = true
)

// TLBEnabled reports whether the vCPU software TLB and the page table's
// paging-structure cache are on.
func TLBEnabled() bool { return tlb }

// ReverseIndexEnabled reports whether pgtable's incremental reverse index
// is consulted by ReverseLookup.
func ReverseIndexEnabled() bool { return reverseIndex }

// ArmCacheEnabled reports whether the vCPU caches VMCS arming state.
func ArmCacheEnabled() bool { return armCache }

// WorkloadMemoEnabled reports whether workloads may memoize host compute
// over Setup-immutable input regions.
func WorkloadMemoEnabled() bool { return workloadMemo }

// DisableAll turns every cache off and returns a function restoring the
// previous state; tests use it as `defer simcache.DisableAll()()`.
func DisableAll() (restore func()) {
	prevTLB, prevRev, prevArm, prevMemo := tlb, reverseIndex, armCache, workloadMemo
	tlb, reverseIndex, armCache, workloadMemo = false, false, false, false
	return func() {
		tlb, reverseIndex, armCache, workloadMemo = prevTLB, prevRev, prevArm, prevMemo
	}
}
