package experiments

import (
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/machine"
)

// TestFaultMatrixAllSpecsExact runs the whole robustness matrix; any
// non-oracle-exact epoch fails the experiment with an error, so this test
// is the acceptance gate for the recovery machinery.
func TestFaultMatrixAllSpecsExact(t *testing.T) {
	res, err := Run("fault-matrix", Options{FaultSpec: "ipi-drop:0.9,hc-drain-fail:0.7"})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	if strings.Contains(out, "NO") {
		t.Fatalf("matrix reports an inexact row:\n%s", out)
	}
	for _, want := range []string{"none", "kitchen-sink", "userspace-only", "custom"} {
		if !strings.Contains(out, want) {
			t.Errorf("matrix missing row %q", want)
		}
	}
}

// TestFaultMatrixCannedSpecsParse keeps the canned specs honest against the
// grammar - a renamed fault point must not silently disarm a CI smoke spec.
func TestFaultMatrixCannedSpecsParse(t *testing.T) {
	for _, c := range CannedFaultSpecs {
		spec, err := faults.ParseSpec(c.Spec)
		if err != nil {
			t.Errorf("canned spec %s: %v", c.Name, err)
		}
		if c.Name != "none" && spec.Empty() {
			t.Errorf("canned spec %s armed no fault points", c.Name)
		}
	}
}

// TestFaultMatrixRejectsBadCustomSpec: an unparseable custom spec must fail
// loudly, not run faultless.
func TestFaultMatrixRejectsBadCustomSpec(t *testing.T) {
	if _, err := Run("fault-matrix", Options{FaultSpec: "not-a-fault:0.5"}); err == nil {
		t.Fatal("bad custom fault spec accepted")
	}
}

// TestFaultMatrixCellsNotVacuous: every armed canned cell must actually
// fire at least one fault at the default seed - a cell whose shape or rung
// never reaches its fault points proves nothing about recovery.
func TestFaultMatrixCellsNotVacuous(t *testing.T) {
	for _, c := range CannedFaultSpecs {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			cell, err := runFaultCell(c, 42, machine.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if c.Name == "none" {
				if cell.faults != 0 {
					t.Fatalf("faultless cell fired %d faults", cell.faults)
				}
				return
			}
			if cell.faults == 0 {
				t.Errorf("cell %s fired no faults: its shape never reaches the spec's points", c.Name)
			}
		})
	}
}
