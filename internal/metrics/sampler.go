package metrics

import "time"

// Valuer is anything the sampler can read a point-in-time int64 from.
// *Counter, *Gauge and small adapter funcs all qualify.
type Valuer interface {
	Value() int64
}

// ValuerFunc adapts a func to the Valuer interface (e.g. a histogram's
// Last or Count, or a derived rate).
type ValuerFunc func() int64

// Value calls f.
func (f ValuerFunc) Value() int64 { return f() }

// Point is one sample: the virtual time it was taken and the value read.
type Point struct {
	TS int64 // virtual nanoseconds
	V  int64
}

// Series is one sampled time-series.
type Series struct {
	Name   string
	valuer Valuer
	Points []Point
}

// Schedule is the virtual-time tick schedule of a clock-driven sampler,
// shared by Sampler and the online monitor (internal/monitor). The first
// tick anchors it and is due; after that a tick is due at most once per
// elapsed interval, never in a catch-up burst; and a clock that moves
// backwards (the owner was re-attached to a fresh machine whose clock
// restarts at zero) re-anchors it.
type Schedule struct {
	interval int64
	next     int64
	started  bool
}

// NewSchedule returns a schedule that ticks every interval of virtual
// time (1ms when interval <= 0).
func NewSchedule(interval time.Duration) Schedule {
	iv := interval.Nanoseconds()
	if iv <= 0 {
		iv = int64(time.Millisecond)
	}
	return Schedule{interval: iv}
}

// Interval returns the tick interval.
func (s *Schedule) Interval() time.Duration { return time.Duration(s.interval) }

// Due reports whether a tick is due at virtual time now and, if it is,
// advances the schedule to the next interval boundary after now.
func (s *Schedule) Due(now int64) bool {
	switch {
	case !s.started || now < s.next-s.interval:
		s.started = true
		s.next = now + s.interval
	case now < s.next:
		return false
	default:
		s.next += ((now-s.next)/s.interval + 1) * s.interval
	}
	return true
}

// Sampler snapshots a set of watched series every `interval` of virtual
// time. It is driven entirely by Registry.Tick calls from instrumentation
// sites, so its resolution is bounded by event density: a quiet stretch
// with no events produces no samples, which is the honest reading of a
// simulator whose time only moves when events do. Its Schedule records at
// most one point per series per elapsed interval, keeping point counts
// bounded and runs deterministic.
type Sampler struct {
	sched  Schedule
	series []*Series
}

func newSampler(interval time.Duration) *Sampler {
	return &Sampler{sched: NewSchedule(interval)}
}

// Watch registers a named series read from v on every sampling tick.
// Watching an already-watched name rebinds its valuer and keeps the
// accumulated points, so re-attaching the same registry to a fresh machine
// (one per scenario in a bench sweep) extends series instead of
// duplicating them. Nil-receiver safe.
func (s *Sampler) Watch(name string, v Valuer) {
	if s == nil || v == nil {
		return
	}
	for _, se := range s.series {
		if se.Name == name {
			se.valuer = v
			return
		}
	}
	s.series = append(s.series, &Series{Name: name, valuer: v})
}

// Interval returns the sampling interval.
func (s *Sampler) Interval() time.Duration {
	if s == nil {
		return 0
	}
	return s.sched.Interval()
}

// SeriesList returns the watched series in registration order.
func (s *Sampler) SeriesList() []*Series {
	if s == nil {
		return nil
	}
	return s.series
}

// tick samples every watched series when the schedule says a sample is
// due. The first tick anchors the schedule (and takes a sample) at the
// run's first observed virtual time.
func (s *Sampler) tick(now int64) {
	if s.sched.Due(now) {
		s.sample(now)
	}
}

func (s *Sampler) sample(now int64) {
	for _, se := range s.series {
		if se.valuer == nil {
			// A merge-created series carries points but no live source until
			// Watch rebinds one; skip it rather than panic.
			continue
		}
		se.Points = append(se.Points, Point{TS: now, V: se.valuer.Value()})
	}
}
