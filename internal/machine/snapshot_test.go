package machine

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/hypervisor"
	"repro/internal/mem"
)

// warmBoot boots a machine, spawns one process with `pages` eagerly mapped
// pages, and writes a deterministic pattern into each.
func warmBoot(t *testing.T, cfg Config, pages int) (*Machine, *Guest, mem.GVA) {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := m.Guest(0)
	proc := g.Kernel.Spawn("app")
	region, err := proc.Mmap(uint64(pages)*mem.PageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < pages; p++ {
		if err := proc.WriteU64(region.Start.Add(uint64(p)*mem.PageSize), 0xBEEF0000+uint64(p)); err != nil {
			t.Fatal(err)
		}
	}
	return m, g, region.Start
}

// image reads every mapped guest frame of g through the kernel path,
// keyed by GPA.
func image(t *testing.T, g *Guest) map[mem.GPA][]byte {
	t.Helper()
	out := make(map[mem.GPA][]byte)
	for _, gpa := range g.VM.MappedPages() {
		buf := make([]byte, mem.PageSize)
		if err := g.VM.VCPU.KernelReadGPA(gpa, buf); err != nil {
			t.Fatal(err)
		}
		out[gpa] = buf
	}
	return out
}

func sameImage(a, b map[mem.GPA][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for gpa, pa := range a {
		if pb, ok := b[gpa]; !ok || !bytes.Equal(pa, pb) {
			return false
		}
	}
	return true
}

// TestMachineForkDiverges: a fork replays the captured machine; writes in
// the fork never reach the parent, writes in the parent never reach the
// fork, and a second fork from the same snapshot still sees the pristine
// capture image.
func TestMachineForkDiverges(t *testing.T) {
	parent, pg, base := warmBoot(t, Config{}, 32)
	snap, err := parent.CaptureSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	captured := image(t, pg)
	capClock := pg.VM.Clock.Nanos()

	fork, err := snap.Fork(Config{})
	if err != nil {
		t.Fatal(err)
	}
	fg := fork.Guest(0)
	if got := fg.VM.Clock.Nanos(); got != capClock {
		t.Errorf("fork clock = %d, capture clock = %d", got, capClock)
	}
	if !sameImage(image(t, fg), captured) {
		t.Fatal("fork image differs from capture image")
	}

	// Diverge both sides: the fork overwrites the first half, the parent
	// the second half, each with its own values.
	fproc, ok := fg.Kernel.Process(1)
	if !ok {
		t.Fatal("fork lost pid 1")
	}
	pproc, _ := pg.Kernel.Process(1)
	for p := 0; p < 16; p++ {
		if err := fproc.WriteU64(base.Add(uint64(p)*mem.PageSize), 0xF0F0F0F0); err != nil {
			t.Fatal(err)
		}
	}
	for p := 16; p < 32; p++ {
		if err := pproc.WriteU64(base.Add(uint64(p)*mem.PageSize), 0xAAAAAAAA); err != nil {
			t.Fatal(err)
		}
	}
	// Each side sees exactly its own divergence.
	for p := 0; p < 32; p++ {
		gva := base.Add(uint64(p) * mem.PageSize)
		fv, err := fproc.ReadU64(gva)
		if err != nil {
			t.Fatal(err)
		}
		pv, err := pproc.ReadU64(gva)
		if err != nil {
			t.Fatal(err)
		}
		wantF, wantP := 0xBEEF0000+uint64(p), 0xBEEF0000+uint64(p)
		if p < 16 {
			wantF = 0xF0F0F0F0
		} else {
			wantP = 0xAAAAAAAA
		}
		if fv != wantF {
			t.Fatalf("fork page %d = %#x, want %#x", p, fv, wantF)
		}
		if pv != wantP {
			t.Fatalf("parent page %d = %#x, want %#x", p, pv, wantP)
		}
	}

	// A second fork is untouched by either divergence.
	fork2, err := snap.Fork(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameImage(image(t, fork2.Guest(0)), captured) {
		t.Error("second fork does not see the pristine capture image")
	}
}

// TestMachineRestoreRewinds: an in-place restore rewinds memory, kernel
// and clock, and leaves the guest fully runnable - including a
// dirty-logging interval that must see exactly the post-restore writes.
func TestMachineRestoreRewinds(t *testing.T) {
	m, g, base := warmBoot(t, Config{}, 16)
	snap, err := m.CaptureSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	captured := image(t, g)
	capClock := g.VM.Clock.Nanos()

	// Diverge: overwrite pages, spawn a second process with its own pages.
	proc, _ := g.Kernel.Process(1)
	for p := 0; p < 16; p++ {
		if err := proc.WriteU64(base.Add(uint64(p)*mem.PageSize), 0xDEAD); err != nil {
			t.Fatal(err)
		}
	}
	extra := g.Kernel.Spawn("extra")
	if _, err := extra.Mmap(4*mem.PageSize, true); err != nil {
		t.Fatal(err)
	}

	if err := m.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if got := g.VM.Clock.Nanos(); got != capClock {
		t.Errorf("restored clock = %d, capture clock = %d", got, capClock)
	}
	if !sameImage(image(t, g), captured) {
		t.Fatal("restored image differs from capture image")
	}
	if _, ok := g.Kernel.Process(2); ok {
		t.Error("post-capture process survived the restore")
	}

	// The guest must be fully runnable post-restore, and hypervisor dirty
	// logging must see exactly the pages written after the restore.
	proc, ok := g.Kernel.Process(1)
	if !ok {
		t.Fatal("pid 1 lost across restore")
	}
	g.VM.StartDirtyLogging()
	for p := 0; p < 3; p++ {
		if err := proc.WriteU64(base.Add(uint64(p)*mem.PageSize), 7); err != nil {
			t.Fatal(err)
		}
	}
	dirty, err := g.VM.CollectDirty()
	if err != nil {
		t.Fatal(err)
	}
	g.VM.StopDirtyLogging()
	if len(dirty) != 3 {
		t.Fatalf("post-restore dirty log has %d pages, want 3", len(dirty))
	}
}

// TestMachineForkOracleBackend: forking works identically under the
// oracle backend, and the forked oracle VM's dirty log is exact.
func TestMachineForkOracleBackend(t *testing.T) {
	m, _, base := warmBoot(t, Config{Backend: "oracle"}, 8)
	snap, err := m.CaptureSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	fork, err := snap.Fork(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if name := fork.backend; name != "oracle" {
		t.Fatalf("fork booted backend %q, want oracle", name)
	}
	fg := fork.Guest(0)
	proc, _ := fg.Kernel.Process(1)
	fg.VM.StartDirtyLogging()
	want := []int{1, 4, 6}
	for _, p := range want {
		if err := proc.WriteU64(base.Add(uint64(p)*mem.PageSize), 9); err != nil {
			t.Fatal(err)
		}
	}
	dirty, err := fg.VM.CollectDirty()
	if err != nil {
		t.Fatal(err)
	}
	if len(dirty) != len(want) {
		t.Fatalf("oracle fork dirty log has %d pages, want %d", len(dirty), len(want))
	}
	for i := 1; i < len(dirty); i++ {
		if dirty[i] <= dirty[i-1] {
			t.Fatal("oracle dirty log not strictly ascending")
		}
	}
}

// TestCaptureRefusesLiveTracking: a guest with live tracking wiring is
// not quiescent and must not capture - an SPML session (rings registered,
// hooks armed), and the oracle backend's dirty or access log while armed.
// Each capture succeeds again once its tracking stops.
func TestCaptureRefusesLiveTracking(t *testing.T) {
	for _, tc := range []struct {
		name    string
		backend string
		// arm starts the tracking and returns the func that stops it.
		arm func(t *testing.T, g *Guest) (stop func())
		// want, when non-nil, is the error the refused capture wraps.
		want error
	}{
		{"spml_session", "", func(t *testing.T, g *Guest) func() {
			proc, _ := g.Kernel.Process(1)
			tech, err := g.NewTechnique(costmodel.SPML, proc)
			if err != nil {
				t.Fatal(err)
			}
			if err := tech.Init(); err != nil {
				t.Fatal(err)
			}
			return func() {
				if err := tech.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}, nil},
		{"oracle_dirty_log", "oracle", func(t *testing.T, g *Guest) func() {
			g.VM.StartDirtyLogging()
			return g.VM.StopDirtyLogging
		}, hypervisor.ErrNotQuiescent},
		{"oracle_access_log", "oracle", func(t *testing.T, g *Guest) func() {
			g.VM.StartAccessLogging()
			return g.VM.StopAccessLogging
		}, hypervisor.ErrNotQuiescent},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, g, _ := warmBoot(t, Config{Backend: tc.backend}, 8)
			stop := tc.arm(t, g)
			if _, err := m.CaptureSnapshot(); err == nil {
				t.Fatal("capture succeeded with live tracking")
			} else if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("capture error %v, want %v", err, tc.want)
			}
			stop()
			if _, err := m.CaptureSnapshot(); err != nil {
				t.Fatalf("capture after tracking stopped: %v", err)
			}
		})
	}
}

// TestNewUnknownBackend: booting an unknown backend fails with an error
// that names it and every backend there is.
func TestNewUnknownBackend(t *testing.T) {
	_, err := New(Config{Backend: "kvm"})
	if err == nil {
		t.Fatal("machine.New booted backend \"kvm\"")
	}
	for _, want := range []string{`"kvm"`, "oracle", "sim"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}

// TestSnapshotBackendMismatch: a snapshot never crosses backends - neither
// a fork configured for another backend nor an in-place restore into a
// machine booted on one.
func TestSnapshotBackendMismatch(t *testing.T) {
	m, _, _ := warmBoot(t, Config{Backend: "sim"}, 4)
	snap, err := m.CaptureSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		do   func() error
	}{
		{"fork", func() error {
			_, err := snap.Fork(Config{Backend: "oracle"})
			return err
		}},
		{"restore", func() error {
			om, _, _ := warmBoot(t, Config{Backend: "oracle"}, 4)
			return om.RestoreSnapshot(snap)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.do(); !errors.Is(err, ErrBackendMismatch) {
				t.Fatalf("sim snapshot into oracle: error %v, want %v", err, ErrBackendMismatch)
			}
		})
	}
}
