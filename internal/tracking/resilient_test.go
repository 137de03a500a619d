package tracking_test

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tracking"
)

// resilientRig is one machine + tracked process + a stacked independent
// verifier (distinct from the wrapper's internal one, so the test oracle
// works even when the wrapper's net is off).
type resilientRig struct {
	g     *machine.Guest
	pages int
	tech  *tracking.Resilient
	ver   *tracking.Verifier
	write func(t *testing.T, page int, val uint64)
}

func newResilientRig(t *testing.T, spec string, preferred costmodel.Technique) *resilientRig {
	t.Helper()
	parsed, err := faults.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	var inj *faults.Injector
	if !parsed.Empty() {
		inj = faults.New(parsed, 0x5EED)
	}
	m, err := machine.New(machine.Config{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	g := m.Guest(0)
	proc := g.Kernel.Spawn("victim")
	const pages = 96
	region, err := proc.Mmap(pages*mem.PageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	rig := &resilientRig{g: g, pages: pages}
	rig.tech = g.NewResilient(preferred, proc)
	rig.ver = tracking.NewVerifier(proc)
	rig.write = func(t *testing.T, page int, val uint64) {
		t.Helper()
		gva := region.Start.Add(uint64(page) * mem.PageSize)
		if err := proc.WriteU64(gva, val); err != nil {
			t.Fatalf("write page %d: %v", page, err)
		}
	}
	return rig
}

// checkExact fails unless got == the stacked verifier's truth, both
// directions (no missing pages, no extras).
func checkExact(t *testing.T, ver *tracking.Verifier, got []mem.GVA) {
	t.Helper()
	truth := ver.Truth()
	gotSet := make(map[mem.GVA]struct{}, len(got))
	for _, gva := range got {
		gotSet[gva.PageFloor()] = struct{}{}
	}
	truthSet := make(map[mem.GVA]struct{}, len(truth))
	for _, gva := range truth {
		truthSet[gva] = struct{}{}
	}
	for _, gva := range truth {
		if _, ok := gotSet[gva]; !ok {
			t.Errorf("missing dirty page %v", gva)
		}
	}
	for gva := range gotSet {
		if _, ok := truthSet[gva]; !ok {
			t.Errorf("extra reported page %v (never written this epoch)", gva)
		}
	}
}

// driveEpochs runs several write-then-collect epochs against the rig,
// checking oracle exactness at each collection.
func driveEpochs(t *testing.T, rig *resilientRig, epochs int, seed uint64) {
	t.Helper()
	rng := sim.NewRNG(seed)
	for e := 0; e < epochs; e++ {
		rig.ver.Reset()
		n := 8 + int(rng.Uint64n(24))
		for i := 0; i < n; i++ {
			rig.write(t, int(rng.Uint64n(uint64(rig.pages))), rng.Uint64())
		}
		got, err := rig.tech.Collect()
		if err != nil {
			t.Fatalf("epoch %d: Collect: %v", e, err)
		}
		checkExact(t, rig.ver, got)
	}
}

func TestResilientPassThroughWithoutFaults(t *testing.T) {
	rig := newResilientRig(t, "", costmodel.EPML)
	defer rig.ver.Stop()
	if err := rig.tech.Init(); err != nil {
		t.Fatal(err)
	}
	if got := rig.tech.Active(); got != costmodel.EPML {
		t.Errorf("active rung = %v, want EPML", got)
	}
	if name := rig.tech.Name(); name != "resilient(EPML)" {
		t.Errorf("Name = %q", name)
	}
	driveEpochs(t, rig, 5, 1)
	rec := rig.tech.Recovery()
	if rec != (tracking.Recovery{}) {
		t.Errorf("fault-free run accumulated recovery work: %+v", rec)
	}
	if err := rig.tech.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestResilientDegradesLadder checks every capability-absent combination
// lands on the expected rung.
func TestResilientDegradesLadder(t *testing.T) {
	cases := []struct {
		spec string
		want costmodel.Technique
		down int
	}{
		{"", costmodel.EPML, 0},
		{"epml-absent", costmodel.SPML, 1},
		{"epml-absent,spml-absent", costmodel.Ufd, 2},
		{"epml-absent,spml-absent,ufd-absent", costmodel.Proc, 3},
	}
	for _, tc := range cases {
		name := tc.spec
		if name == "" {
			name = "none"
		}
		t.Run(name, func(t *testing.T) {
			rig := newResilientRig(t, tc.spec, costmodel.EPML)
			defer rig.ver.Stop()
			if err := rig.tech.Init(); err != nil {
				t.Fatal(err)
			}
			if got := rig.tech.Active(); got != tc.want {
				t.Fatalf("active rung = %v, want %v", got, tc.want)
			}
			if got := rig.tech.Recovery().Degradations; got != tc.down {
				t.Errorf("degradations = %d, want %d", got, tc.down)
			}
			driveEpochs(t, rig, 4, 2)
			if err := rig.tech.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestResilientLadderExhausted: when even /proc is unreachable... it never
// is, but a ladder cut short must surface the capability error.
func TestResilientLadderExhausted(t *testing.T) {
	parsed, err := faults.ParseSpec("epml-absent")
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(parsed, 1)
	m, err := machine.New(machine.Config{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	g := m.Guest(0)
	proc := g.Kernel.Spawn("victim")
	if _, err := proc.Mmap(4*mem.PageSize, true); err != nil {
		t.Fatal(err)
	}
	factory := func(kind costmodel.Technique) (tracking.Technique, error) {
		return g.NewTechnique(kind, proc)
	}
	r := tracking.NewResilient(proc, inj, factory, costmodel.EPML) // one-rung ladder
	if err := r.Init(); !errors.Is(err, faults.ErrUnsupported) {
		t.Fatalf("Init on exhausted ladder: %v, want ErrUnsupported", err)
	}
}

// TestResilientAllTechniquesAbsent walks a full ladder that excludes the
// always-available /proc rung while every capability is absent: Init must
// descend every rung, then surface the typed capability error - no panic,
// no half-armed tracker - and leave the process trackable by a later
// healthy session.
func TestResilientAllTechniquesAbsent(t *testing.T) {
	parsed, err := faults.ParseSpec("epml-absent,spml-absent,ufd-absent")
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(parsed, 1)
	m, err := machine.New(machine.Config{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	g := m.Guest(0)
	proc := g.Kernel.Spawn("victim")
	if _, err := proc.Mmap(4*mem.PageSize, true); err != nil {
		t.Fatal(err)
	}
	factory := func(kind costmodel.Technique) (tracking.Technique, error) {
		return g.NewTechnique(kind, proc)
	}
	r := tracking.NewResilient(proc, inj, factory,
		costmodel.EPML, costmodel.SPML, costmodel.Ufd) // no /proc safety rung
	if err := r.Init(); !errors.Is(err, faults.ErrUnsupported) {
		t.Fatalf("Init with every capability absent: %v, want ErrUnsupported", err)
	}
	if got := r.Recovery().Degradations; got != 2 {
		t.Errorf("degradations = %d, want 2 (EPML->SPML->ufd)", got)
	}
	// The failed ladder walk must not leave dirty logging armed.
	if g.VM.EnabledByHyp() {
		t.Error("dirty logging still armed after exhausted ladder")
	}
	// And the host is still usable: an unrestricted ladder lands on /proc.
	r2 := tracking.NewResilient(proc, inj, factory)
	if err := r2.Init(); err != nil {
		t.Fatalf("follow-up default-ladder session: %v", err)
	}
	if got := r2.Active(); got != costmodel.Proc {
		t.Errorf("follow-up session active rung = %v, want Proc", got)
	}
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestResilientExactUnderFaultMatrix is the core acceptance property: under
// every canned fault mix, each collection's report equals the independent
// oracle's truth exactly.
func TestResilientExactUnderFaultMatrix(t *testing.T) {
	specs := []string{
		"ipi-storm/ipi-drop:0.4,ipi-dup:0.3",
		"hc-flaky/hc-enable-fail:0.3,hc-disable-fail:0.3,hc-drain-fail:0.5,hc-init-fail:0.5",
		"lossy-pml/pml-entry-loss:0.2,pml-full-exit:0.01",
		"vmcs-flaky/vmwrite-fail:0.2,collect-stall:0.3",
		"kitchen-sink/ipi-drop:0.3,pml-entry-loss:0.2,hc-drain-fail:0.4,vmwrite-fail:0.1,collect-stall:0.2",
	}
	for _, entry := range specs {
		label, spec, _ := strings.Cut(entry, "/")
		for _, preferred := range []costmodel.Technique{costmodel.EPML, costmodel.SPML} {
			t.Run(label+"/"+preferred.String(), func(t *testing.T) {
				rig := newResilientRig(t, spec, preferred)
				defer rig.ver.Stop()
				if err := rig.tech.Init(); err != nil {
					t.Fatal(err)
				}
				driveEpochs(t, rig, 8, 0xABCD)
				if err := rig.tech.Close(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestResilientRetriesCharged: transient failures must cost virtual time
// (the backoff) and be counted.
func TestResilientRetriesCharged(t *testing.T) {
	rig := newResilientRig(t, "hc-drain-fail:0.6", costmodel.SPML)
	defer rig.ver.Stop()
	if err := rig.tech.Init(); err != nil {
		t.Fatal(err)
	}
	driveEpochs(t, rig, 10, 7)
	rec := rig.tech.Recovery()
	if rec.Retries == 0 {
		t.Fatal("no retries recorded under hc-drain-fail:0.6 across 10 epochs")
	}
	if rec.BackoffTime <= 0 {
		t.Error("retries recorded but no backoff time charged")
	}
	if rig.tech.Stats().CollectTime < rec.BackoffTime {
		t.Errorf("CollectTime %v < backoff %v: backoff not charged to the phase",
			rig.tech.Stats().CollectTime, rec.BackoffTime)
	}
}

// TestResilientStallCharged: injected Collect stalls show up in Recovery
// and in the phase time.
func TestResilientStallCharged(t *testing.T) {
	rig := newResilientRig(t, "collect-stall", costmodel.EPML)
	defer rig.ver.Stop()
	if err := rig.tech.Init(); err != nil {
		t.Fatal(err)
	}
	driveEpochs(t, rig, 3, 9)
	if got := rig.tech.Recovery().Stalls; got != 3 {
		t.Errorf("stalls = %d, want 3 (rate-1 spec, 3 epochs)", got)
	}
}

// TestResilientDeterministic: same seed, same spec => identical reports and
// identical final virtual time.
func TestResilientDeterministic(t *testing.T) {
	run := func() (string, int64) {
		rig := newResilientRig(t, "ipi-drop:0.4,hc-drain-fail:0.3,seed=99", costmodel.EPML)
		defer rig.ver.Stop()
		if err := rig.tech.Init(); err != nil {
			t.Fatal(err)
		}
		var log string
		rng := sim.NewRNG(42)
		for e := 0; e < 6; e++ {
			rig.ver.Reset()
			for i := 0; i < 20; i++ {
				rig.write(t, int(rng.Uint64n(uint64(rig.pages))), rng.Uint64())
			}
			got, err := rig.tech.Collect()
			if err != nil {
				t.Fatal(err)
			}
			pages := make([]uint64, len(got))
			for i, gva := range got {
				pages[i] = uint64(gva)
			}
			sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
			log += fmt.Sprint(pages)
		}
		return log, rig.g.Kernel.Clock.Nanos()
	}
	log1, t1 := run()
	log2, t2 := run()
	if log1 != log2 {
		t.Error("same seed + same fault spec produced different reports")
	}
	if t1 != t2 {
		t.Errorf("same seed + same fault spec produced different virtual times: %d vs %d", t1, t2)
	}
}

// TestResilientConcurrentMachines drives independent faulted machines from
// separate goroutines - the -race check that per-machine injectors share no
// state.
func TestResilientConcurrentMachines(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rig := newResilientRig(t, "ipi-drop:0.3,pml-entry-loss:0.2", costmodel.EPML)
			defer rig.ver.Stop()
			if err := rig.tech.Init(); err != nil {
				t.Error(err)
				return
			}
			driveEpochs(t, rig, 4, uint64(w)+100)
		}(w)
	}
	wg.Wait()
}
