package experiments

import (
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/machine"
	"repro/internal/trace"
)

// TestFig3TraceMatchesBreakdown cross-checks the trace subsystem against
// the hand-rolled accounting: the per-kind cost sums of the ring_copy,
// pt_walk and reverse_map records emitted during an SPML collection must
// equal the FetchBreakdown the core library computes for Fig. 3.
func TestFig3TraceMatchesBreakdown(t *testing.T) {
	mem := &trace.Memory{}
	tr := trace.New(mem, 0)
	res, err := runMicro(costmodel.SPML, 10<<8, 1, machine.Config{Tracer: tr}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	var fromTrace [3]time.Duration // ring copy, pt walk, reverse map
	for _, r := range mem.Records() {
		switch r.Kind {
		case trace.KindRingCopy:
			fromTrace[0] += time.Duration(r.Cost)
		case trace.KindPTWalk:
			fromTrace[1] += time.Duration(r.Cost)
		case trace.KindReverseMap:
			fromTrace[2] += time.Duration(r.Cost)
		}
	}
	bd := res.Fetch
	if bd.Total() == 0 {
		t.Fatal("empty Fetch breakdown")
	}
	if fromTrace[0] != bd.RingCopy {
		t.Errorf("ring_copy trace sum %v != breakdown %v", fromTrace[0], bd.RingCopy)
	}
	if fromTrace[1] != bd.PTWalk {
		t.Errorf("pt_walk trace sum %v != breakdown %v", fromTrace[1], bd.PTWalk)
	}
	if fromTrace[2] != bd.ReverseMap {
		t.Errorf("reverse_map trace sum %v != breakdown %v", fromTrace[2], bd.ReverseMap)
	}
}

// TestTracingPreservesVirtualTime: attaching a tracer must not change any
// measured virtual time - traced and untraced runs are bit-identical.
func TestTracingPreservesVirtualTime(t *testing.T) {
	for _, kind := range []costmodel.Technique{costmodel.Proc, costmodel.SPML, costmodel.EPML} {
		plain, err := runMicro(kind, 2<<8, 1, machine.Config{}, false)
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.New(trace.Discard{}, 0)
		traced, err := runMicro(kind, 2<<8, 1, machine.Config{Tracer: tr}, false)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Tracked != traced.Tracked || plain.Ideal != traced.Ideal ||
			plain.Tracker != traced.Tracker {
			t.Errorf("%v: tracing changed virtual times: tracked %v->%v, ideal %v->%v, tracker %v->%v",
				kind, plain.Tracked, traced.Tracked, plain.Ideal, traced.Ideal,
				plain.Tracker, traced.Tracker)
		}
	}
}

// TestTrackPhaseRecords: technique phase spans land in the trace with
// costs matching the technique's own Stats accounting.
func TestTrackPhaseRecords(t *testing.T) {
	mem := &trace.Memory{}
	tr := trace.New(mem, 0)
	res, err := runMicro(costmodel.Proc, 4<<8, 1, machine.Config{Tracer: tr}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	var init, collect time.Duration
	for _, r := range mem.Records() {
		switch r.Kind {
		case trace.KindTrackInit:
			init += time.Duration(r.Cost)
		case trace.KindTrackCollect:
			collect += time.Duration(r.Cost)
		}
	}
	if init != res.Breakdown.InitTime {
		t.Errorf("track_init trace sum %v != InitTime %v", init, res.Breakdown.InitTime)
	}
	if collect != res.Breakdown.CollectTime {
		t.Errorf("track_collect trace sum %v != CollectTime %v", collect, res.Breakdown.CollectTime)
	}
}
