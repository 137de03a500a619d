package experiments

import (
	"reflect"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// TestMicroGridMatchesSingleCells: the micro grid runs each size's ideal
// baseline once and shares it across techniques, so every grid cell must
// equal the single-cell runMicro for the same (technique, size) - Ideal
// included - at any worker count.
func TestMicroGridMatchesSingleCells(t *testing.T) {
	const seed = 9
	kinds := []costmodel.Technique{costmodel.Proc, costmodel.EPML}
	sizes := []int{1, 2}
	var want []MicroResult
	for _, kind := range kinds {
		for _, mb := range sizes {
			r, err := runMicro(kind, mb<<8, seed, machine.Config{}, false)
			if err != nil {
				t.Fatalf("runMicro(%v, %d MiB): %v", kind, mb, err)
			}
			want = append(want, r)
		}
	}
	if want[0].Ideal == want[1].Ideal {
		t.Fatal("both sizes share one ideal time; the grid's baseline indexing would go unchecked")
	}
	for _, workers := range []int{1, 8} {
		got, err := microGrid(Options{Workers: workers, Seed: seed}, kinds, sizes)
		if err != nil {
			t.Fatalf("microGrid (workers=%d): %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("microGrid (workers=%d) returned %d cells, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d cell %d:\ngrid:   %+v\nsingle: %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestCRIUGridMatchesSingleCells is the CRIU grid's version: one shared
// ideal run per app, every cell equal to the single-cell runCRIU with
// Ideal and Verified included.
func TestCRIUGridMatchesSingleCells(t *testing.T) {
	if testing.Short() {
		t.Skip("the CRIU grid checkpoints the Large working set; too slow for -short")
	}
	const seed = 9
	var want []CRIUResult
	for _, kind := range criuKinds {
		r, err := runCRIU("baby", workloads.Large, 1, kind, seed, machine.Config{})
		if err != nil {
			t.Fatalf("runCRIU(%v): %v", kind, err)
		}
		if !r.Verified || r.Ideal == 0 {
			t.Fatalf("runCRIU(%v): verified=%v ideal=%v", kind, r.Verified, r.Ideal)
		}
		want = append(want, r)
	}
	for _, workers := range []int{1, 8} {
		got, err := criuGrid(Options{Workers: workers, Scale: 1, Seed: seed}, []string{"baby"})
		if err != nil {
			t.Fatalf("criuGrid (workers=%d): %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: grid cells differ from single cells:\ngrid:   %+v\nsingle: %+v", workers, got, want)
		}
	}
}
