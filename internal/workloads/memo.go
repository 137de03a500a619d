package workloads

import (
	"sync"
	"sync/atomic"

	"repro/internal/sim"
	"repro/internal/simcache"
)

// The input memo. The paper's Boehm and CRIU grids run each app on one
// input under every tracking technique, and Run repeats a pass over an
// input that Setup wrote once, so the same input is generated and
// analysed again and again on the host. The memo keeps one copy per
// process of what that host arithmetic produced: a workload's generated
// input (histogram's file, string-match's text) and what one pass
// computes from it (a pass-pure analysis: string-match's matches,
// histogram's bin counts, PCA's means and covariance band). Only host
// arithmetic and host memory are shared. A hit replays in guest memory
// exactly what a fresh instance does - the same guest writes and reads,
// so the same virtual time and counters - and leaves the caller's RNG
// where generating would have left it. A generated input is immutable:
// Setup writes it with Process.WriteShared, so the guest pages it fills
// share its page-sized windows until their first write.
//
// The memo holds one entry per workload name, and at most one of them
// holds a generated input: generating one drops the entry of any other
// name that holds one. A generated input's pages stay live while any
// machine set up on it does, so a second held input would stay live
// through the cells of the next workload (an observed Boehm pass would
// hold histogram's medium file through string-match's cells and the
// export). An entry that generates nothing (PCA's) holds only its
// analysis, a few KiB, and stays, so the CRIU figures analyse PCA's
// matrix once per process. A sweep that mixes sizes of one workload, or
// a parallel sweep at the boundary between two workloads with inputs,
// may replace an entry between cells, which costs a regeneration and
// never a wrong result. simcache.DisableAll turns the memo off with the
// other caches: every Setup then generates and every Run analyses
// afresh.

// inputKey identifies one workload input.
type inputKey struct {
	name string  // Workload.Name
	dims [2]int  // the input's dimensions: file bytes, or rows and columns
	rng  sim.RNG // the generator at Setup
}

// drawn is a generated input: its bytes, as Setup writes them to guest
// memory, and the generator after drawing them.
type drawn struct {
	bytes []byte
	after sim.RNG
}

// memoEntry is one memoized input: I is what generating it produced, A
// what one pass computes from it. Every instance and sweep cell with the
// same key shares the entry: the input is generated once, under once, and
// the first instance to complete an analysis publishes it.
type memoEntry[I, A any] struct {
	key   inputKey
	once  sync.Once
	input I
	done  atomic.Pointer[A]
}

// inputs maps a workload name to its memoized entry; held names the
// one entry that holds a generated input.
var inputs = struct {
	sync.Mutex
	byName map[string]any
	held   string
}{byName: map[string]any{}}

// memoFor returns the shared entry for key, replacing any other input of
// key.name, or nil when the workload memo is off. Every method of a nil
// entry computes afresh and keeps nothing.
func memoFor[I, A any](key inputKey) *memoEntry[I, A] {
	if !simcache.Enabled() {
		return nil
	}
	inputs.Lock()
	defer inputs.Unlock()
	if e, ok := inputs.byName[key.name].(*memoEntry[I, A]); ok && e.key == key {
		return e
	}
	e := &memoEntry[I, A]{key: key}
	inputs.byName[key.name] = e
	return e
}

// generate returns the entry's input, calling gen for it the first time,
// after dropping the entry that held the memo's generated input.
func (e *memoEntry[I, A]) generate(gen func() I) I {
	if e == nil {
		return gen()
	}
	e.once.Do(func() {
		inputs.Lock()
		if inputs.held != e.key.name {
			delete(inputs.byName, inputs.held)
			inputs.held = e.key.name
		}
		inputs.Unlock()
		e.input = gen()
	})
	return e.input
}

// analysis returns the published analysis of the input, or nil.
func (e *memoEntry[I, A]) analysis() *A {
	if e == nil {
		return nil
	}
	return e.done.Load()
}

// publish offers a as the input's analysis; the first one offered stays.
func (e *memoEntry[I, A]) publish(a *A) {
	if e != nil {
		e.done.CompareAndSwap(nil, a)
	}
}
