package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Counters is a set of named event counters used throughout the simulator
// to record how often each modelled event occurred (page faults, vmexits,
// hypercalls, ...). The zero value is ready to use. Counters is not safe
// for concurrent use.
//
// Hot paths resolve a name once with Handle and bump the returned *Counter,
// keeping the map hash out of per-memory-op code. Handles never detach:
// Reset and Restore rewrite every counter in place, so a handle resolved
// before a snapshot restore keeps counting after it. Only touched counters
// - bumped since the last Reset, or carried in by Restore - are listed by
// Names, Snapshot, String and Merge, so resolving a handle alone changes
// no export.
type Counters struct {
	m map[string]*Counter
}

// Counter is one named counter of a Counters set.
type Counter struct {
	n       int64
	touched bool
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	c.n += n
	c.touched = true
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Handle returns the named counter, creating it untouched at zero. The
// handle stays valid for the lifetime of the Counters.
func (c *Counters) Handle(name string) *Counter {
	if c.m == nil {
		c.m = make(map[string]*Counter)
	}
	p := c.m[name]
	if p == nil {
		p = new(Counter)
		c.m[name] = p
	}
	return p
}

// Add increments the named counter by n.
func (c *Counters) Add(name string, n int64) { c.Handle(name).Add(n) }

// Inc increments the named counter by one.
func (c *Counters) Inc(name string) { c.Add(name, 1) }

// Get returns the value of the named counter (zero if never incremented).
func (c *Counters) Get(name string) int64 {
	if p := c.m[name]; p != nil {
		return p.n
	}
	return 0
}

// Reset clears all counters, in place.
func (c *Counters) Reset() {
	for _, p := range c.m {
		*p = Counter{}
	}
}

// Restore replaces the counter values with the given ones (typically a
// Snapshot result), in place: every named value is touched, every other
// counter reset.
func (c *Counters) Restore(vals map[string]int64) {
	c.Reset()
	for k, v := range vals {
		*c.Handle(k) = Counter{n: v, touched: true}
	}
}

// Names returns the sorted list of counter names that have been touched.
func (c *Counters) Names() []string {
	names := make([]string, 0, len(c.m))
	for k, p := range c.m {
		if p.touched {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	return names
}

// Snapshot returns a copy of all touched counters.
func (c *Counters) Snapshot() map[string]int64 {
	out := make(map[string]int64, len(c.m))
	for k, p := range c.m {
		if p.touched {
			out[k] = p.n
		}
	}
	return out
}

// Merge adds every touched counter from other into c.
func (c *Counters) Merge(other *Counters) {
	for k, p := range other.m {
		if p.touched {
			c.Add(k, p.n)
		}
	}
}

// String renders the touched counters as "name=value" pairs sorted by name.
func (c *Counters) String() string {
	var b strings.Builder
	for i, name := range c.Names() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", name, c.m[name].n)
	}
	return b.String()
}
