package workloads

import (
	"math"

	"repro/internal/guestos"
	"repro/internal/mem"
	"repro/internal/sim"
)

// PCA is Phoenix's principal component analysis kernel: compute the mean
// vector and the covariance matrix of an r x c data matrix. The paper's
// CRIU experiment finds pca the worst-case tracked app (102 % overhead
// under /proc, 114 % under SPML, 7 % under EPML): its covariance writes
// touch a c x c output that is large relative to its runtime.
type PCA struct {
	Rows, Cols int

	proc  *guestos.Process
	data  mem.GVA // Rows x Cols float64
	means mem.GVA // Cols float64
	cov   mem.GVA // Cols x Cols float64
	memo  *memoEntry[struct{}, pcaResult]
	ready bool

	// Trace is the covariance trace after the last Run (verification).
	Trace float64
}

// NewPCA returns the kernel for an r x c matrix (Table III: -r/-c up to 10K,
// -s 200 sampled covariance columns; we compute a banded covariance to keep
// the same write pattern at tractable cost).
func NewPCA(rows, cols int) *PCA { return &PCA{Rows: rows, Cols: cols} }

// Name implements Workload.
func (w *PCA) Name() string { return "phoenix/pca" }

// Setup implements Workload.
func (w *PCA) Setup(alloc Allocator, rng *sim.RNG) error {
	w.proc = alloc.Proc()
	w.memo = memoFor[struct{}, pcaResult](inputKey{name: w.Name(), dims: [2]int{w.Rows, w.Cols}, rng: *rng})
	var err error
	if w.data, err = alloc.Alloc(uint64(w.Rows) * uint64(w.Cols) * 8); err != nil {
		return err
	}
	if w.means, err = alloc.Alloc(uint64(w.Cols) * 8); err != nil {
		return err
	}
	if w.cov, err = alloc.Alloc(uint64(w.Cols) * uint64(w.Cols) * 8); err != nil {
		return err
	}
	row := make([]byte, w.Cols*8)
	for i := 0; i < w.Rows; i++ {
		for j := 0; j < w.Cols; j++ {
			putU64(row, j*8, math.Float64bits(rng.Float64()*2-1))
		}
		if err := writeChunk(w.proc, w.data.Add(uint64(i)*uint64(w.Cols)*8), row); err != nil {
			return err
		}
	}
	w.ready = true
	return nil
}

// covBand bounds how far off the diagonal covariance entries are computed;
// Phoenix's -s parameter similarly subsamples the covariance computation.
// A row holds at most bandWidth of them.
const (
	covBand   = 16
	bandWidth = 2*covBand + 1
)

// pcaResult is one pass's analysis of a data matrix. The matrix is
// written only in Setup, so every pass computes the same result.
type pcaResult struct {
	means []float64
	band  []float64 // bandWidth per column j: its covariances with columns j-covBand..j+covBand, clipped
	trace float64
}

// Run implements Workload: means pass, then banded covariance pass writing
// every covariance row. Every pass reads the whole matrix; a pass over a
// matrix already analysed writes the published result.
func (w *PCA) Run() error {
	if err := checkSetup(w.Name(), w.ready); err != nil {
		return err
	}
	r, c := w.Rows, w.Cols
	rowBytes := uint64(c) * 8
	res := w.memo.analysis()
	var matrix []float64
	if res == nil {
		matrix = make([]float64, r*c)
	}
	row := make([]byte, rowBytes)
	for i := 0; i < r; i++ {
		if err := readChunk(w.proc, w.data.Add(uint64(i)*rowBytes), row); err != nil {
			return err
		}
		if matrix == nil {
			continue
		}
		for j := 0; j < c; j++ {
			matrix[i*c+j] = math.Float64frombits(u64At(row, j*8))
		}
	}
	if res == nil {
		res = analysePCA(matrix, r, c)
		w.memo.publish(res)
	}
	out := make([]byte, rowBytes)
	for j, m := range res.means {
		putU64(out, j*8, math.Float64bits(m))
	}
	if err := writeChunk(w.proc, w.means, out); err != nil {
		return err
	}
	// Banded covariance, one written row per column.
	chargeFlops(w.proc, int64(r)*int64(c)+int64(r)*int64(c)*bandWidth*3)
	for j := 0; j < c; j++ {
		clear(out)
		lo, hi := max(j-covBand, 0), min(j+covBand, c-1)
		for k := lo; k <= hi; k++ {
			putU64(out, k*8, math.Float64bits(res.band[j*bandWidth+k-lo]))
		}
		if err := writeChunk(w.proc, w.cov.Add(uint64(j)*rowBytes), out); err != nil {
			return err
		}
	}
	w.Trace = res.trace
	return nil
}

// analysePCA computes the mean vector, the banded covariance and its
// trace of an r x c matrix.
func analysePCA(matrix []float64, r, c int) *pcaResult {
	res := &pcaResult{means: make([]float64, c), band: make([]float64, c*bandWidth)}
	means := res.means
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			means[j] += matrix[i*c+j]
		}
	}
	for j := range means {
		means[j] /= float64(r)
	}
	for j := 0; j < c; j++ {
		lo, hi := max(j-covBand, 0), min(j+covBand, c-1)
		for k := lo; k <= hi; k++ {
			var s float64
			for i := 0; i < r; i++ {
				s += (matrix[i*c+j] - means[j]) * (matrix[i*c+k] - means[k])
			}
			s /= float64(r - 1)
			res.band[j*bandWidth+k-lo] = s
			if k == j {
				res.trace += s
			}
		}
	}
	return res
}

// WorkingSet implements Workload.
func (w *PCA) WorkingSet() uint64 {
	return uint64(w.Rows)*uint64(w.Cols)*8 + uint64(w.Cols)*8 + uint64(w.Cols)*uint64(w.Cols)*8
}
