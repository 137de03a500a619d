package criu

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// setupWorkload boots a machine and runs a workload's setup.
func setupWorkload(t testing.TB, name string) (*machine.Machine, *workloads.Tkrzw) {
	t.Helper()
	m, err := machine.New(machine.Config{})
	if err != nil {
		t.Fatalf("machine.New: %v", err)
	}
	return m, nil
}

// TestCheckpointRestoreRoundTrip checkpoints a live KV workload under every
// technique, restores into a fresh guest, and verifies byte-identical
// memory plus query-identical engine state.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	for _, kind := range machine.RealTechniques() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			m, err := machine.New(machine.Config{})
			if err != nil {
				t.Fatalf("machine.New: %v", err)
			}
			g := m.Guest(0)
			proc := g.Kernel.Spawn("kv")
			w, err := workloads.New("stdhash", workloads.Small, 1)
			if err != nil {
				t.Fatalf("workloads.New: %v", err)
			}
			rng := sim.NewRNG(21)
			if err := w.Setup(workloads.NewRegionAlloc(proc, false), rng); err != nil {
				t.Fatalf("Setup: %v", err)
			}
			if err := w.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}

			tech, err := g.NewTechnique(kind, proc)
			if err != nil {
				t.Fatalf("NewTechnique: %v", err)
			}
			ckpt := New(proc, tech, Options{MaxRounds: 2})
			img, stats, err := ckpt.Run(func(round int) error {
				// Keep mutating between rounds: pre-copy must catch this.
				return w.Run()
			})
			if err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			if stats.Rounds < 2 {
				t.Errorf("Rounds = %d, want >= 2", stats.Rounds)
			}
			if stats.Dumped < stats.Final {
				t.Errorf("Dumped (%d) < Final (%d)", stats.Dumped, stats.Final)
			}

			restored, err := Restore(g.Kernel, img)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if err := Verify(proc, restored); err != nil {
				t.Fatalf("verify: %v", err)
			}
		})
	}
}

// TestImageSerializationRoundTrip encodes and decodes an image.
func TestImageSerializationRoundTrip(t *testing.T) {
	m, err := machine.New(machine.Config{})
	if err != nil {
		t.Fatalf("machine.New: %v", err)
	}
	g := m.Guest(0)
	proc := g.Kernel.Spawn("app")
	region, err := proc.Mmap(16*4096, true)
	if err != nil {
		t.Fatalf("Mmap: %v", err)
	}
	rng := sim.NewRNG(33)
	for p := 0; p < 16; p++ {
		if err := proc.WriteU64(region.Start.Add(uint64(p)*4096), rng.Uint64()); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	tech, _ := g.NewTechnique(costmodel.EPML, proc)
	img, _, err := New(proc, tech, Options{}).Run(nil)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	var buf bytes.Buffer
	if _, err := img.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	decoded, err := ReadImage(&buf)
	if err != nil {
		t.Fatalf("ReadImage: %v", err)
	}
	if decoded.Pid != img.Pid || decoded.Name != img.Name || len(decoded.Pages) != len(img.Pages) {
		t.Errorf("decoded metadata differs: %+v vs %+v", decoded.Pid, img.Pid)
	}
	for gva, want := range img.Pages {
		got, ok := decoded.Pages[gva]
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("page %v differs after round trip", gva)
		}
	}
	// Restoring from the decoded image must also verify.
	restored, err := Restore(g.Kernel, decoded)
	if err != nil {
		t.Fatalf("restore from decoded: %v", err)
	}
	if err := Verify(proc, restored); err != nil {
		t.Fatalf("verify decoded: %v", err)
	}
}

// TestBadImageRejected exercises the decoder's error paths.
func TestBadImageRejected(t *testing.T) {
	if _, err := ReadImage(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("ReadImage(garbage) succeeded")
	}
	if _, err := ReadImage(bytes.NewReader(nil)); err == nil {
		t.Error("ReadImage(empty) succeeded")
	}
	// A name length past the end of the image: magic, pid, then 1<<62.
	huge := binary.LittleEndian.AppendUint64(nil, imageMagic)
	huge = binary.LittleEndian.AppendUint64(huge, 1)
	huge = binary.LittleEndian.AppendUint64(huge, 1<<62)
	if _, err := ReadImage(bytes.NewReader(huge)); !errors.Is(err, ErrBadImage) {
		t.Errorf("ReadImage(name length 1<<62) = %v, want ErrBadImage", err)
	}
}

// TestPhaseAttribution checks the paper's MD/MW split: /proc charges its
// walk to MW (interleaved), SPML charges its reverse mapping to MD.
func TestPhaseAttribution(t *testing.T) {
	times := make(map[costmodel.Technique]Stats)
	for _, kind := range []costmodel.Technique{costmodel.Proc, costmodel.SPML, costmodel.EPML} {
		m, err := machine.New(machine.Config{})
		if err != nil {
			t.Fatalf("machine.New: %v", err)
		}
		g := m.Guest(0)
		proc := g.Kernel.Spawn("app")
		w := workloads.NewArrayParser(2048)
		if err := w.Setup(workloads.NewRegionAlloc(proc, true), sim.NewRNG(1)); err != nil {
			t.Fatalf("Setup: %v", err)
		}
		tech, _ := g.NewTechnique(kind, proc)
		_, stats, err := New(proc, tech, Options{MaxRounds: 1}).Run(func(int) error { return w.Run() })
		if err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		times[kind] = stats
	}
	if md := times[costmodel.Proc].MD; md != 0 {
		t.Errorf("/proc MD = %v, want 0 (interleaved walk+write)", md)
	}
	if times[costmodel.SPML].MD <= times[costmodel.EPML].MD {
		t.Errorf("SPML MD (%v) should exceed EPML MD (%v): reverse mapping",
			times[costmodel.SPML].MD, times[costmodel.EPML].MD)
	}
	if times[costmodel.Proc].MW <= times[costmodel.EPML].MW {
		t.Errorf("/proc MW (%v) should exceed EPML MW (%v): interleaved pagemap walk",
			times[costmodel.Proc].MW, times[costmodel.EPML].MW)
	}
}
