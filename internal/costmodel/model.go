package costmodel

import (
	"math"
	"sync/atomic"
	"time"
)

// MiB is one mebibyte, the unit of Table V(b)'s size axis.
const MiB = 1 << 20

// Curve is a memory-size-dependent cost: the paper samples each such metric
// at seven Tracked memory sizes (1 MB .. 1 GB, Table Vb). Between samples we
// interpolate log-linearly in size (costs grow smoothly but super- or
// sub-linearly in memory, e.g. reverse mapping). Below the first sample the
// cost scales proportionally with size from the first point; above the last
// sample it extrapolates along the final segment's linear slope, clamped at
// zero so a decreasing final segment can never yield a negative cost.
type Curve struct {
	sizesMB []float64       // sample sizes in MiB, ascending
	costs   []time.Duration // total cost at each sample size

	// perPage memoizes the last PerPage result: the simulator charges one
	// per fault or logged entry, almost always at the size of the last
	// call. It is atomic because snapshot forks share one Model across
	// grid workers, and shared by every copy of the curve.
	perPage *atomic.Pointer[perPageMemo]
}

// perPageMemo is one PerPage result.
type perPageMemo struct {
	size uint64
	cost time.Duration
}

// NewCurve builds a curve from parallel slices of sizes (MiB) and total
// costs. It panics on malformed input: curves are package-internal tables.
func NewCurve(sizesMB []float64, costs []time.Duration) Curve {
	if len(sizesMB) != len(costs) || len(sizesMB) < 2 {
		panic("costmodel: malformed curve")
	}
	for i := 1; i < len(sizesMB); i++ {
		if sizesMB[i] <= sizesMB[i-1] {
			panic("costmodel: curve sizes not ascending")
		}
	}
	return Curve{sizesMB: sizesMB, costs: costs, perPage: new(atomic.Pointer[perPageMemo])}
}

// Total returns the interpolated total cost of the metric for a Tracked
// memory of the given size in bytes.
func (c Curve) Total(sizeBytes uint64) time.Duration {
	if sizeBytes == 0 {
		return 0
	}
	mb := float64(sizeBytes) / MiB
	n := len(c.sizesMB)
	switch {
	case mb <= c.sizesMB[0]:
		// Scale linearly below the first sample: cost per MiB is constant.
		return time.Duration(float64(c.costs[0]) * mb / c.sizesMB[0])
	case mb >= c.sizesMB[n-1]:
		// Extrapolate linearly above the last sample using the last
		// segment's slope. A negative slope (a metric that got cheaper at
		// the largest sample) would eventually cross zero and produce a
		// negative cost, which panics sim.Clock.Advance - clamp at zero.
		last, prev := float64(c.costs[n-1]), float64(c.costs[n-2])
		slope := (last - prev) / (c.sizesMB[n-1] - c.sizesMB[n-2])
		cost := last + slope*(mb-c.sizesMB[n-1])
		if cost < 0 {
			return 0
		}
		return time.Duration(cost)
	}
	// Log-linear interpolation between bracketing samples.
	i := 1
	for c.sizesMB[i] < mb {
		i++
	}
	x0, x1 := math.Log(c.sizesMB[i-1]), math.Log(c.sizesMB[i])
	y0, y1 := math.Log(float64(c.costs[i-1])), math.Log(float64(c.costs[i]))
	t := (math.Log(mb) - x0) / (x1 - x0)
	return time.Duration(math.Exp(y0 + t*(y1-y0)))
}

// PerPage returns the metric's cost per 4 KiB page when the Tracked memory
// is sizeBytes: Total(size) divided by the page count at that size. The
// simulator charges this per observed event (fault, page walked, ...), so
// partial working sets cost proportionally less than the closed-form total.
func (c Curve) PerPage(sizeBytes uint64) time.Duration {
	if sizeBytes == 0 {
		return 0
	}
	if m := c.perPage.Load(); m != nil && m.size == sizeBytes {
		return m.cost
	}
	pages := (sizeBytes + 4095) / 4096
	cost := c.Total(sizeBytes) / time.Duration(pages)
	c.perPage.Store(&perPageMemo{size: sizeBytes, cost: cost})
	return cost
}

// Model holds every calibrated cost used by the simulator. The Default
// model reproduces the paper's Table V; tests and ablation benches build
// variants.
type Model struct {
	// Constant metrics (Table Va), paper values in µs.
	ContextSwitch  time.Duration // M1: 0.315 µs
	IoctlInitPML   time.Duration // M3: 5,651 µs
	IoctlDeactPML  time.Duration // M4: 2,816 µs
	VMRead         time.Duration // M7: 0.936 µs
	VMWrite        time.Duration // M8: 0.801 µs
	HypInitPML     time.Duration // M9: 5,495 µs
	HypInitShadow  time.Duration // M10: 5,878 µs
	HypDeactPML    time.Duration // M11: 2,060 µs
	HypDeactShadow time.Duration // M12: 2,755 µs
	EnablePMLLog   time.Duration // M13: 0.3 µs

	// Memory-dependent metrics (Table Vb), totals at 1MB..1GB.
	ClearRefs     Curve // M15
	PTWalkUser    Curve // M16
	PFHKernel     Curve // M5
	PFHUser       Curve // M6
	DisablePMLLog Curve // M14 (per-call cost, grows mildly with size)
	RBCopy        Curve // M18
	ReverseMap    Curve // M17

	// ufd write_protect/unprotect ioctl (M2): the paper reports it as
	// memory dependent but does not tabulate it; it is dominated by one
	// syscall per faulted page. We charge a constant per-page cost.
	IoctlWriteProtectPerPage time.Duration

	// Baseline execution costs of the simulated machine (not in Table V;
	// calibrated so Table I's overhead percentages land near the paper's).
	WritePerPageOp time.Duration // one tracked store touching a page (TLB-hit path)
	ReadPerPageOp  time.Duration // one tracked load touching a page
	VMExit         time.Duration // raw world switch guest->hypervisor
	VMEntry        time.Duration // raw world switch hypervisor->guest
	PMLLogEntry    time.Duration // CPU appending one entry to a PML buffer
	IRQDelivery    time.Duration // posted self-IPI delivery to the guest
	DiskWritePage  time.Duration // checkpoint image write of one 4 KiB page
	EPTViolation   time.Duration // hypervisor servicing one demand allocation
	KernelPageOp   time.Duration // guest kernel touching one page (clear_refs walks etc.)
	DemandFault    time.Duration // guest kernel servicing an ordinary demand-paging fault

	// Workload compute costs: the virtual time an application spends
	// processing data beyond the raw memory moves. Calibrated to
	// Phoenix-like throughput (~100 MB/s per core for pointer-heavy
	// MapReduce kernels) and ~1 GFLOP/s for numeric kernels.
	ComputePerByte time.Duration
	ComputePerFlop time.Duration
}

// Default returns the model calibrated to the paper's Table V measurements.
func Default() *Model {
	sizes := []float64{1, 10, 50, 100, 250, 500, 1024}
	ms := func(vals ...float64) Curve {
		costs := make([]time.Duration, len(vals))
		for i, v := range vals {
			costs[i] = milliseconds(v)
		}
		return NewCurve(sizes, costs)
	}
	return &Model{
		ContextSwitch:  microseconds(0.315),
		IoctlInitPML:   microseconds(5651),
		IoctlDeactPML:  microseconds(2816),
		VMRead:         microseconds(0.936),
		VMWrite:        microseconds(0.801),
		HypInitPML:     microseconds(5495),
		HypInitShadow:  microseconds(5878),
		HypDeactPML:    microseconds(2060),
		HypDeactShadow: microseconds(2755),
		EnablePMLLog:   microseconds(0.3),

		ClearRefs:     ms(0.032, 0.0912, 0.174, 0.288, 0.613, 1.153, 2.234),
		PTWalkUser:    ms(1.912, 14.479, 41.832, 82.289, 161.973, 307.109, 594.187),
		PFHKernel:     ms(0.003, 0.3, 1.68, 3.34, 8.39, 16.79, 33.58),
		PFHUser:       ms(2.5, 27.3, 152.3, 347.1, 882.8, 1585, 3483),
		DisablePMLLog: ms(0.042, 0.047, 0.138, 0.156, 0.189, 0.203, 0.208),
		RBCopy:        ms(0.003, 0.01, 0.03, 0.048, 0.109, 0.383, 0.671),
		ReverseMap:    ms(6.183, 24.653, 85.117, 255.437, 1211, 4123, 15738),

		IoctlWriteProtectPerPage: microseconds(1.2),

		WritePerPageOp: 720 * time.Nanosecond,
		ReadPerPageOp:  180 * time.Nanosecond,
		VMExit:         800 * time.Nanosecond,
		VMEntry:        600 * time.Nanosecond,
		PMLLogEntry:    15 * time.Nanosecond,
		IRQDelivery:    500 * time.Nanosecond,
		DiskWritePage:  4 * time.Microsecond,
		EPTViolation:   2 * time.Microsecond,
		KernelPageOp:   8 * time.Nanosecond,
		DemandFault:    time.Microsecond,
		ComputePerByte: 10 * time.Nanosecond,
		ComputePerFlop: 1 * time.Nanosecond,
	}
}

// ConstCost returns the cost of a memory-agnostic metric (Table Va third
// column). It returns 0 for memory-dependent metrics; use Curve accessors
// for those.
func (m *Model) ConstCost(metric Metric) time.Duration {
	switch metric {
	case M1ContextSwitch:
		return m.ContextSwitch
	case M3IoctlInitPML:
		return m.IoctlInitPML
	case M4IoctlDeactPML:
		return m.IoctlDeactPML
	case M7VMRead:
		return m.VMRead
	case M8VMWrite:
		return m.VMWrite
	case M9HypInitPML:
		return m.HypInitPML
	case M10HypInitPMLShadow:
		return m.HypInitShadow
	case M11HypDeactPML:
		return m.HypDeactPML
	case M12HypDeactPMLShadow:
		return m.HypDeactShadow
	case M13EnablePMLLogging:
		return m.EnablePMLLog
	}
	return 0
}

// MemCurve returns the curve of a memory-dependent metric, or ok=false for
// constant metrics.
func (m *Model) MemCurve(metric Metric) (Curve, bool) {
	switch metric {
	case M5PFHKernel:
		return m.PFHKernel, true
	case M6PFHUser:
		return m.PFHUser, true
	case M14DisablePMLLogging:
		return m.DisablePMLLog, true
	case M15ClearRefs:
		return m.ClearRefs, true
	case M16PTWalkUser:
		return m.PTWalkUser, true
	case M17ReverseMapping:
		return m.ReverseMap, true
	case M18RingBufferCopy:
		return m.RBCopy, true
	}
	return Curve{}, false
}
