package main

import (
	"errors"
	"testing"
)

func TestStatsSelfTimeExcludesChildren(t *testing.T) {
	r := &recorder{spans: []span{
		{Name: "cell", Parent: -1, Start: 0, End: 100},
		{Name: "machine.fork", Parent: 0, Start: 10, End: 30},
		{Name: "workloads.run", Parent: 0, Start: 30, End: 90},
		{Name: "tracking.spml.collect", Parent: 2, Start: 40, End: 50},
		{Name: "workloads.run", Parent: -1, Start: 100, End: 105},
	}}
	st := r.stats()
	want := map[string]int64{"cell": 20, "machine.fork": 20, "workloads.run": 55, "tracking.spml.collect": 10}
	for name, self := range want {
		if got := st[name].SelfNS; got != self {
			t.Errorf("%s self time = %d, want %d", name, got, self)
		}
	}
	if st["workloads.run"].Calls != 2 || st["workloads.run"].Durs[0] != 5 || st["workloads.run"].Durs[1] != 60 {
		t.Errorf("workloads.run = %+v, want 2 calls with sorted durations [5 60]", st["workloads.run"])
	}
}

func TestDoNestsAndKeepsError(t *testing.T) {
	r := newRecorder()
	boom := errors.New("boom")
	err := r.do("outer", func() error {
		return r.do("inner", func() error { return boom })
	})
	if !errors.Is(err, boom) {
		t.Fatalf("do returned %v, want %v", err, boom)
	}
	if len(r.spans) != 2 || r.spans[1].Parent != 0 || r.spans[0].Parent != -1 {
		t.Fatalf("spans = %+v, want inner nested in outer", r.spans)
	}
	var nilRec *recorder
	if err := nilRec.do("x", func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("nil recorder returned %v, want %v", err, boom)
	}
}

func TestPercentilesLeaveTenSamplesAbove(t *testing.T) {
	seq := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i)
		}
		return s
	}
	for _, tc := range []struct {
		n     int
		ok    bool
		level float64
	}{
		{20, false, 0}, {21, true, 0.50}, {39, true, 0.50}, {40, true, 0.75},
		{75, true, 0.75}, {101, true, 0.90}, {1001, true, 0.99},
	} {
		p50, tail, level, ok := percentiles(seq(tc.n))
		if ok != tc.ok || level != tc.level {
			t.Errorf("n=%d: level %v ok %v, want %v %v", tc.n, level, ok, tc.level, tc.ok)
			continue
		}
		if ok && (int64(tc.n)-1-tail < 10 || p50 != int64(float64(tc.n-1)*0.5+0.5)) {
			t.Errorf("n=%d: p50 %d tail %d leave %d samples above", tc.n, p50, tail, int64(tc.n)-1-tail)
		}
	}
}
