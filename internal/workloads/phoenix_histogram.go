package workloads

import (
	"repro/internal/guestos"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Histogram is Phoenix's histogram kernel: scan a bitmap file of RGB
// pixels and count the occurrences of each 8-bit value per channel. The
// input file lives in guest memory (Table III drives it with 0.1-1.5 GB
// data files); the 3x256 counter arrays are the write-hot set, while the
// scan dirties nothing - a read-mostly tracked process.
type Histogram struct {
	FileBytes uint64

	proc  *guestos.Process
	file  mem.GVA
	bins  mem.GVA // 3*256 u64 counters: R, G, B
	ready bool

	// Totals carries the final counts for result verification.
	Totals [3][256]uint64

	// memo holds the input's bin counts: the file region is immutable
	// after Setup, so every pass bins the same bytes. Later passes (and
	// other instances on the same input) reuse the counts while still
	// issuing the same guest reads; the cumulative Totals reduce (and its
	// guest writes) stays per-pass.
	memo *memoEntry[struct{}, [3][256]uint64]
}

// NewHistogram returns the kernel over a synthetic file of n bytes.
func NewHistogram(fileBytes uint64) *Histogram { return &Histogram{FileBytes: fileBytes} }

// Name implements Workload.
func (w *Histogram) Name() string { return "phoenix/histogram" }

// Setup implements Workload: generate the input file in guest memory.
func (w *Histogram) Setup(alloc Allocator, rng *sim.RNG) error {
	w.proc = alloc.Proc()
	w.memo = memoFor[struct{}, [3][256]uint64](inputKey{name: w.Name(), dims: [2]int{int(w.FileBytes)}, rng: *rng})
	var err error
	if w.file, err = alloc.Alloc(w.FileBytes); err != nil {
		return err
	}
	if err := fillRandom(w.proc, w.file, w.FileBytes, rng); err != nil {
		return err
	}
	if w.bins, err = alloc.Alloc(3 * 256 * 8); err != nil {
		return err
	}
	w.ready = true
	return nil
}

// Run implements Workload: one full scan of the file, accumulating pixel
// counts, then writing the counter arrays back to guest memory.
func (w *Histogram) Run() error {
	if err := checkSetup(w.Name(), w.ready); err != nil {
		return err
	}
	local := w.memo.analysis()
	bin := local == nil
	if bin {
		local = new([3][256]uint64)
	}
	buf := make([]byte, mem.PageSize)
	for off := uint64(0); off < w.FileBytes; off += mem.PageSize {
		n := min(w.FileBytes-off, mem.PageSize)
		if err := readChunk(w.proc, w.file.Add(off), buf[:n]); err != nil {
			return err
		}
		if !bin {
			continue
		}
		for i := 0; i+2 < int(n); i += 3 {
			local[0][buf[i]]++
			local[1][buf[i+1]]++
			local[2][buf[i+2]]++
		}
	}
	if bin {
		w.memo.publish(local)
	}
	// Reduce phase: store counters to guest memory (the dirty writes).
	out := make([]byte, 256*8)
	for ch := 0; ch < 3; ch++ {
		for v := 0; v < 256; v++ {
			w.Totals[ch][v] += local[ch][v]
			putU64(out, v*8, w.Totals[ch][v])
		}
		if err := writeChunk(w.proc, w.bins.Add(uint64(ch)*256*8), out); err != nil {
			return err
		}
	}
	return nil
}

// WorkingSet implements Workload.
func (w *Histogram) WorkingSet() uint64 { return w.FileBytes + 3*256*8 }
