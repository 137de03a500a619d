// Package workloads implements the paper's tracked applications as real
// algorithms operating on simulated guest memory: the Listing-1 array
// parser microbenchmark, GCBench, the six Phoenix MapReduce kernels
// (histogram, kmeans, matrix-multiply, pca, string-match, word-count) and
// the five tkrzw in-memory key-value engines (baby, cache, stdhash,
// stdtree, tiny) under set-request injection (Table III).
//
// What the evaluation depends on is each workload's dirty page pattern -
// which pages it writes, how often, over what working set. The kernels
// here compute real results on real data; bulk data moves between guest
// memory and host computation in page-sized chunks, so the number of
// simulated MMU operations stays proportional to pages touched, exactly
// the granularity every tracking technique observes.
package workloads

import (
	"fmt"
	"time"

	"repro/internal/boehmgc"
	"repro/internal/gheap"
	"repro/internal/guestos"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Workload is one tracked application. Setup allocates and populates its
// memory; Run performs one pass of its computation and may be called
// repeatedly (checkpoint pre-copy rounds and GC cycles interleave with
// passes).
type Workload interface {
	Name() string
	Setup(alloc Allocator, rng *sim.RNG) error
	Run() error
	// WorkingSet returns the approximate bytes of memory the workload
	// touches, for reporting and cost-curve selection.
	WorkingSet() uint64
}

// Allocator abstracts where a workload's memory comes from: plain mmapped
// regions for the CRIU experiments, or the Boehm GC heap for the GC
// experiments (the paper links Phoenix against Boehm, turning mallocs into
// GC_malloc).
type Allocator interface {
	Alloc(size uint64) (mem.GVA, error)
	Proc() *guestos.Process
}

// RegionAlloc serves allocations from fresh mmapped regions.
type RegionAlloc struct {
	P *guestos.Process
	// Eager pre-faults allocations (the microbenchmark's mlockall).
	Eager bool
}

// NewRegionAlloc returns a region-backed allocator for proc.
func NewRegionAlloc(proc *guestos.Process, eager bool) *RegionAlloc {
	return &RegionAlloc{P: proc, Eager: eager}
}

// Alloc implements Allocator.
func (a *RegionAlloc) Alloc(size uint64) (mem.GVA, error) {
	r, err := a.P.Mmap(size, a.Eager)
	if err != nil {
		return 0, err
	}
	return r.Start, nil
}

// Proc implements Allocator.
func (a *RegionAlloc) Proc() *guestos.Process { return a.P }

// HeapAlloc serves allocations from a gheap arena.
type HeapAlloc struct {
	H *gheap.Heap
}

// Alloc implements Allocator.
func (a *HeapAlloc) Alloc(size uint64) (mem.GVA, error) { return a.H.Alloc(size) }

// Proc implements Allocator.
func (a *HeapAlloc) Proc() *guestos.Process { return a.H.Proc }

// GCAlloc serves allocations as rooted, pointer-free GC objects: the
// workload's data lives on the collected heap, so GC cycles must scan (or,
// incrementally, skip) it.
type GCAlloc struct {
	GC *boehmgc.GC
}

// Alloc implements Allocator.
func (a *GCAlloc) Alloc(size uint64) (mem.GVA, error) {
	obj, err := a.GC.Alloc(size, 0)
	if err != nil {
		return 0, err
	}
	a.GC.AddRoot(obj)
	return obj.Addr.Add(8), nil // payload starts after the header word
}

// Proc implements Allocator.
func (a *GCAlloc) Proc() *guestos.Process { return a.GC.Proc }

// --- chunked guest accessors ---------------------------------------------------

// readChunk reads n bytes at gva into a reusable buffer, charging the
// workload's per-byte processing time: the kernels compute real results
// from real data on the host, and this is where that work costs virtual
// time.
func readChunk(p *guestos.Process, gva mem.GVA, buf []byte) error {
	k := p.Kernel()
	k.Clock.Advance(k.Model.ComputePerByte * time.Duration(len(buf)))
	return p.Read(gva, buf)
}

// writeChunk writes buf at gva, charging per-byte processing time.
func writeChunk(p *guestos.Process, gva mem.GVA, buf []byte) error {
	k := p.Kernel()
	k.Clock.Advance(k.Model.ComputePerByte * time.Duration(len(buf)))
	return p.Write(gva, buf)
}

// writeSharedChunk writes src[at:at+n] at gva as writeChunk does, letting
// the guest pages it fills share src's page-aligned windows: src must stay
// unmodified (guestos.Process.WriteShared).
func writeSharedChunk(p *guestos.Process, gva mem.GVA, src []byte, at, n int) error {
	k := p.Kernel()
	k.Clock.Advance(k.Model.ComputePerByte * time.Duration(n))
	return p.WriteShared(gva, src, at, n)
}

// chargeFlops charges virtual time for n floating-point operations of a
// numeric kernel (matrix-multiply, pca, kmeans distance computations).
func chargeFlops(p *guestos.Process, n int64) {
	k := p.Kernel()
	k.Clock.Advance(k.Model.ComputePerFlop * time.Duration(n))
}

// u64At decodes a little-endian u64 from b at off.
func u64At(b []byte, off int) uint64 {
	_ = b[off+7]
	return uint64(b[off]) | uint64(b[off+1])<<8 | uint64(b[off+2])<<16 | uint64(b[off+3])<<24 |
		uint64(b[off+4])<<32 | uint64(b[off+5])<<40 | uint64(b[off+6])<<48 | uint64(b[off+7])<<56
}

// putU64 encodes v into b at off.
func putU64(b []byte, off int, v uint64) {
	_ = b[off+7]
	b[off] = byte(v)
	b[off+1] = byte(v >> 8)
	b[off+2] = byte(v >> 16)
	b[off+3] = byte(v >> 24)
	b[off+4] = byte(v >> 32)
	b[off+5] = byte(v >> 40)
	b[off+6] = byte(v >> 48)
	b[off+7] = byte(v >> 56)
}

// checkSetup guards Run-before-Setup misuse uniformly.
func checkSetup(name string, ready bool) error {
	if !ready {
		return fmt.Errorf("workloads: %s.Run called before Setup", name)
	}
	return nil
}
