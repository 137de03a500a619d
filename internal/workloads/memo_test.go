package workloads

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/boehmgc"
	"repro/internal/costmodel"
	"repro/internal/guestos"
	"repro/internal/hypervisor"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/simcache"
)

// memoRun is everything a set-up-and-two-passes run leaves that the input
// memo must not change.
type memoRun struct {
	next     uint64 // the RNG's next draw after Setup
	result   string // Matches, Totals or Trace
	clock    int64
	counters map[string]int64
	guest    [sha256.Size]byte // the workload's regions, read back from the guest
}

// newProc boots a one-VM machine and spawns a process on it.
func newProc() (*guestos.Process, error) {
	model := costmodel.Default()
	vm, err := hypervisor.New(mem.NewPhysMem(0), model).CreateVM()
	if err != nil {
		return nil, err
	}
	return guestos.NewKernel(vm.VCPU, model).Spawn("memo"), nil
}

// runInput sets the named workload up on a fresh machine at seed 42 and
// runs two passes.
func runInput(name string, size Size) (memoRun, error) {
	var r memoRun
	w, err := New(name, size, 1)
	if err != nil {
		return r, err
	}
	proc, err := newProc()
	if err != nil {
		return r, err
	}
	rng := sim.NewRNG(42)
	if err := w.Setup(NewRegionAlloc(proc, false), rng); err != nil {
		return r, err
	}
	r.next = rng.Uint64()
	for i := 0; i < 2; i++ {
		if err := w.Run(); err != nil {
			return r, err
		}
	}
	k := proc.Kernel()
	r.clock, r.counters = k.Clock.Nanos(), k.VCPU.Counters.Snapshot()
	type region struct {
		at   mem.GVA
		size uint64
	}
	var regions []region
	switch w := w.(type) {
	case *StringMatch:
		r.result = fmt.Sprint(w.Matches)
		regions = []region{{w.file, w.FileBytes}, {w.flags, w.FileBytes/64 + 1}}
	case *Histogram:
		r.result = fmt.Sprint(w.Totals)
		regions = []region{{w.file, w.FileBytes}, {w.bins, 3 * 256 * 8}}
	case *PCA:
		r.result = fmt.Sprint(w.Trace)
		c := uint64(w.Cols)
		regions = []region{{w.data, uint64(w.Rows) * c * 8}, {w.means, c * 8}, {w.cov, c * c * 8}}
	default:
		return r, fmt.Errorf("%s keeps no memo", name)
	}
	h := sha256.New()
	for _, reg := range regions {
		buf := make([]byte, reg.size)
		if err := proc.Read(reg.at, buf); err != nil {
			return r, err
		}
		h.Write(buf)
	}
	h.Sum(r.guest[:0])
	return r, nil
}

// resetInputs empties the memo.
func resetInputs() {
	inputs.Lock()
	clear(inputs.byName)
	inputs.held = ""
	inputs.Unlock()
}

// TestInputMemoMatchesRegeneration pins the memo to regeneration: a first
// instance (which generates), a second instance on the warm memo and one
// under simcache.DisableAll leave the same guest bytes, RNG, results,
// virtual clock and counters, and Setup leaves the RNG past exactly the
// draws its input takes. string-match runs small, medium, then small
// again, so its third case regenerates an input the second evicted.
func TestInputMemoMatchesRegeneration(t *testing.T) {
	resetInputs()
	const mb = 1 << 20
	for _, c := range []struct {
		name  string
		size  Size
		draws int // one per letter and two plants per page; a word per 8 bytes; one per matrix entry
	}{
		{"string-match", Small, 2*mb + 2*(2*mb/mem.PageSize)},
		{"string-match", Medium, 4*mb + 2*(4*mb/mem.PageSize)},
		{"string-match", Small, 2*mb + 2*(2*mb/mem.PageSize)},
		{"histogram", Small, 2 * mb / 8},
		{"pca", Small, 1024 * 256},
	} {
		t.Run(fmt.Sprintf("%s/%s", c.name, c.size), func(t *testing.T) {
			cold, err := runInput(c.name, c.size)
			if err != nil {
				t.Fatal(err)
			}
			rng := sim.NewRNG(42)
			for i := 0; i < c.draws; i++ {
				rng.Uint64()
			}
			if want := rng.Uint64(); cold.next != want {
				t.Errorf("next draw after Setup = %#x, want %#x (%d draws past the seed)", cold.next, want, c.draws)
			}
			warm, err := runInput(c.name, c.size)
			if err != nil {
				t.Fatal(err)
			}
			restore := simcache.DisableAll()
			uncached, err := runInput(c.name, c.size)
			restore()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cold, uncached) {
				t.Errorf("first instance differs from regeneration:\n%+v\n%+v", cold, uncached)
			}
			if !reflect.DeepEqual(warm, uncached) {
				t.Errorf("warm instance differs from regeneration:\n%+v\n%+v", warm, uncached)
			}
		})
	}
}

// TestInputMemoConcurrent sets the same inputs up on eight machines at
// once: each input is generated once and analysed by whichever instance
// finishes first, and every machine ends as a lone one does.
func TestInputMemoConcurrent(t *testing.T) {
	for _, name := range []string{"string-match", "histogram", "pca"} {
		t.Run(name, func(t *testing.T) {
			resetInputs()
			want, err := runInput(name, Small)
			if err != nil {
				t.Fatal(err)
			}
			resetInputs()
			runs := make([]memoRun, 8)
			errs := make([]error, len(runs))
			var wg sync.WaitGroup
			for i := range runs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					runs[i], errs[i] = runInput(name, Small)
				}()
			}
			wg.Wait()
			for i, got := range runs {
				if errs[i] != nil {
					t.Fatalf("machine %d: %v", i, errs[i])
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("machine %d differs from a lone run:\n%+v\n%+v", i, got, want)
				}
			}
		})
	}
}

// TestInputMemoKeepsOneInputPerName: a second size of a workload
// replaces the first in the memo, and the memo holds one generated input
// per process: another workload's input replaces it, while an entry that
// generates nothing (PCA's analysis) stays.
func TestInputMemoKeepsOneInputPerName(t *testing.T) {
	resetInputs()
	setup := func(name string, size Size) {
		t.Helper()
		proc, err := newProc()
		if err != nil {
			t.Fatal(err)
		}
		w, _ := New(name, size, 1)
		if err := w.Setup(NewRegionAlloc(proc, false), sim.NewRNG(1)); err != nil {
			t.Fatal(err)
		}
	}
	held := func() map[string]int {
		inputs.Lock()
		defer inputs.Unlock()
		dims := map[string]int{}
		for name, e := range inputs.byName {
			switch e := e.(type) {
			case *memoEntry[drawn, matchScan]:
				dims[name] = e.key.dims[0]
			case *memoEntry[drawn, [3][256]uint64]:
				dims[name] = e.key.dims[0]
			case *memoEntry[struct{}, pcaResult]:
				dims[name] = e.key.dims[0]
			default:
				t.Fatalf("memo holds %T under %s", e, name)
			}
		}
		return dims
	}
	for _, step := range []struct {
		name string
		size Size
		want map[string]int
	}{
		{"string-match", Small, map[string]int{"phoenix/string-match": 2 << 20}},
		{"string-match", Medium, map[string]int{"phoenix/string-match": 4 << 20}},
		{"pca", Small, map[string]int{"phoenix/string-match": 4 << 20, "phoenix/pca": 1024}},
		{"histogram", Small, map[string]int{"phoenix/histogram": 2 << 20, "phoenix/pca": 1024}},
	} {
		setup(step.name, step.size)
		if got := held(); !reflect.DeepEqual(got, step.want) {
			t.Fatalf("after %s %v's Setup the memo holds %v, want %v", step.name, step.size, got, step.want)
		}
	}
}

// TestWarmSetupSharesInput: histogram's and string-match's medium Setups
// land their input as shared guest pages instead of copies, in regions and
// on the Boehm heap (whose payloads start 8 bytes into a page). On a warm
// memo a Setup allocates at most 256 B per working-set page, where a copy
// would cost 4 KiB. With the caches off (simcache.DisableAll) every Setup
// draws its input afresh, 4 KiB per page, and the guest pages share that
// draw: at most 4,352 B per page, where drawing and copying cost 8 KiB.
func TestWarmSetupSharesInput(t *testing.T) {
	for _, name := range []string{"histogram", "string-match"} {
		for _, heap := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/gc=%v", name, heap), func(t *testing.T) {
				setup := func(t *testing.T) float64 {
					t.Helper()
					proc, err := newProc()
					if err != nil {
						t.Fatal(err)
					}
					w, _ := New(name, Medium, 1)
					var alloc Allocator = NewRegionAlloc(proc, false)
					if heap {
						gc, err := boehmgc.New(proc, 3*w.WorkingSet(), nil)
						if err != nil {
							t.Fatal(err)
						}
						alloc = &GCAlloc{GC: gc}
					}
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					err = w.Setup(alloc, sim.NewRNG(42))
					runtime.ReadMemStats(&after)
					if err != nil {
						t.Fatal(err)
					}
					return float64(after.TotalAlloc-before.TotalAlloc) / float64(w.WorkingSet()/mem.PageSize)
				}
				for _, st := range []struct {
					name  string
					off   bool
					limit float64
				}{{"cold", true, mem.PageSize + 256}, {"warm", false, 256}} {
					t.Run(st.name, func(t *testing.T) {
						if st.off {
							defer simcache.DisableAll()()
						}
						resetInputs()
						setup(t) // warms the memo when it is on
						perPage := setup(t)
						t.Logf("%s Setup: %.0f B per working-set page", st.name, perPage)
						if perPage > st.limit {
							t.Errorf("%s Setup allocated %.0f B per working-set page, want at most %.0f", st.name, perPage, st.limit)
						}
					})
				}
			})
		}
	}
}

// BenchmarkInputSetup times the host computations the memo shares,
// string-match's and histogram's medium Setups and a PCA small pass, with
// the memo off (cold) and warm.
func BenchmarkInputSetup(b *testing.B) {
	states := []struct {
		name string
		off  bool
	}{{"cold", true}, {"warm", false}}
	for _, in := range []struct {
		name string
		w    func() Workload
	}{
		{"string-match-medium-setup", func() Workload { return NewStringMatch(4 << 20) }},
		{"histogram-medium-setup", func() Workload { return NewHistogram(10 << 20) }},
	} {
		for _, s := range states {
			b.Run(in.name+"/"+s.name, func(b *testing.B) {
				if s.off {
					defer simcache.DisableAll()()
				}
				setup := func() {
					proc, err := newProc()
					if err != nil {
						b.Fatal(err)
					}
					w := in.w()
					b.StartTimer()
					err = w.Setup(NewRegionAlloc(proc, false), sim.NewRNG(42))
					b.StopTimer()
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				setup() // warms the memo
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					setup()
				}
			})
		}
	}
	for _, s := range states {
		b.Run("pca-small-run/"+s.name, func(b *testing.B) {
			if s.off {
				defer simcache.DisableAll()()
			}
			proc, err := newProc()
			if err != nil {
				b.Fatal(err)
			}
			w := NewPCA(1024, 256)
			if err := w.Setup(NewRegionAlloc(proc, false), sim.NewRNG(42)); err != nil {
				b.Fatal(err)
			}
			if err := w.Run(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
