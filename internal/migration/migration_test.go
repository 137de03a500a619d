package migration

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
)

func TestMigrationTransfersAllMemoryCorrectly(t *testing.T) {
	m, g, _ := setupPlain(t, 128)
	_ = m
	image, stats, err := Migrate(g.VM, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds < 1 || stats.UniquePages == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	// Every mapped frame's content must match the live memory.
	mismatch := 0
	for gpa, want := range image {
		got := make([]byte, mem.PageSize)
		if err := g.VM.VCPU.KernelReadGPA(gpa, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			mismatch++
		}
	}
	if mismatch != 0 {
		t.Errorf("%d migrated pages differ from live memory", mismatch)
	}
}

// setupPlain is setup without the adapter noise.
func setupPlain(t *testing.T, pages int) (*machine.Machine, *machine.Guest, mem.GVA) {
	t.Helper()
	m, err := machine.New(machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g := m.Guest(0)
	proc := g.Kernel.Spawn("app")
	region, err := proc.Mmap(uint64(pages)*mem.PageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(77)
	for p := 0; p < pages; p++ {
		if err := proc.WriteU64(region.Start.Add(uint64(p)*mem.PageSize), rng.Uint64()); err != nil {
			t.Fatal(err)
		}
	}
	return m, g, region.Start
}

func TestMigrationCatchesRacingWrites(t *testing.T) {
	m, g, base := setupPlain(t, 64)
	_ = m
	proc, _ := g.Kernel.Process(1)
	marker := uint64(0xA5A5_0000)
	image, stats, err := Migrate(g.VM, Options{MaxRounds: 4}, func(round int) error {
		// Mutate a page during pre-copy; the final image must hold the
		// last value.
		return proc.WriteU64(base, marker+uint64(round))
	})
	if err != nil {
		t.Fatal(err)
	}
	gpa, err := proc.PT.Translate(base)
	if err != nil {
		t.Fatal(err)
	}
	content, ok := image[gpa.PageFloor()]
	if !ok {
		t.Fatal("mutated page missing from image")
	}
	got := uint64(content[0]) | uint64(content[1])<<8 | uint64(content[2])<<16 | uint64(content[3])<<24
	// The last runBetween call was for some round r; the image must hold
	// marker+r for the final r (rounds executed = stats.Rounds varies).
	if got < uint64(uint32(marker+1)) {
		t.Errorf("image holds stale value %#x (stats %+v)", got, stats)
	}
	// The racing page was retransmitted: amplification observable.
	if stats.PagesSent <= stats.UniquePages {
		t.Errorf("no retransmissions recorded: sent=%d unique=%d", stats.PagesSent, stats.UniquePages)
	}
}

func TestMigrationConvergesAndBoundsDowntime(t *testing.T) {
	m, g, _ := setupPlain(t, 256)
	_ = m
	image, stats, err := Migrate(g.VM, Options{DowntimeTargetPages: 32, BandwidthPagesPerMS: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Error("idle guest did not converge")
	}
	// Downtime covers <= 32 pages at 64 pages/ms: at most 0.5ms.
	if stats.Downtime > 500*1000 {
		t.Errorf("downtime %v exceeds the target bound", stats.Downtime)
	}
	if len(image) < 256 {
		t.Errorf("image has %d frames, want >= 256", len(image))
	}
}

func TestMigrationEmptyVM(t *testing.T) {
	m, err := machine.New(machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Migrate(m.Guest(0).VM, Options{}, nil); !errors.Is(err, ErrNoMemory) {
		t.Errorf("empty VM migration: %v", err)
	}
}

// TestMigrationCoexistsWithSPML is the §IV-C showcase: a guest SPML
// session stays complete while the hypervisor live-migrates the VM.
func TestMigrationCoexistsWithSPML(t *testing.T) {
	m, g, base := setupPlain(t, 64)
	_ = m
	proc, _ := g.Kernel.Process(1)
	tech, err := g.NewTechnique(costmodel.SPML, proc)
	if err != nil {
		t.Fatal(err)
	}
	if err := tech.Init(); err != nil {
		t.Fatal(err)
	}

	written := map[mem.GVA]bool{}
	_, _, err = Migrate(g.VM, Options{MaxRounds: 3}, func(round int) error {
		for i := 0; i < 8; i++ {
			gva := base.Add(uint64(round*8+i) * mem.PageSize)
			if err := proc.WriteU64(gva, uint64(round)); err != nil {
				return err
			}
			written[gva] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := tech.Collect()
	if err != nil {
		t.Fatal(err)
	}
	have := map[mem.GVA]bool{}
	for _, gva := range got {
		have[gva] = true
	}
	for gva := range written {
		if !have[gva] {
			t.Errorf("SPML lost page %v during migration", gva)
		}
	}
	if err := tech.Close(); err != nil {
		t.Fatal(err)
	}
}
