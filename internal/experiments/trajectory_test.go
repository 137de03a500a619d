package experiments

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"
)

// TestTrajectoryRoundTrip: lines written by AppendTrajectory must satisfy
// ValidateTrajectory - the contract between the CI appender and the
// pre-append corruption check.
func TestTrajectoryRoundTrip(t *testing.T) {
	perf := []BenchPerf{
		{ID: "fig3", PagesTracked: 1 << 20, PagesPerSec: 2.5e6, SpeedupVsUncached: 3.2},
		{ID: "table1", PagesTracked: 1 << 18, PagesPerSec: 1.1e6, SpeedupVsUncached: 1.9},
	}
	var buf bytes.Buffer
	if err := AppendTrajectory(&buf, "deadbeef", perf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != 2 {
		t.Fatalf("wrote %d lines, want 2:\n%s", n, buf.String())
	}
	if err := ValidateTrajectory(bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("round trip failed validation: %v", err)
	}
	// Appending again (a later CI run) keeps the file valid.
	if err := AppendTrajectory(&buf, "cafef00d", perf[:1]); err != nil {
		t.Fatal(err)
	}
	if err := ValidateTrajectory(bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("second append broke validation: %v", err)
	}
}

// TestValidateTrajectoryRejectsCorruption: the validator must catch the
// ways an append-only file rots - wrong schema, truncated JSON, missing
// experiment id - and tolerate blank lines.
func TestValidateTrajectoryRejectsCorruption(t *testing.T) {
	good := `{"schema":"ooh-trajectory/v1","commit":"c1","id":"fig3","pages_tracked":1024,"pages_per_sec":100,"speedup_vs_uncached":2}`
	cases := []struct {
		name, body string
		ok         bool
	}{
		{"good line", good + "\n", true},
		{"blank lines tolerated", "\n" + good + "\n\n", true},
		{"wrong schema", `{"schema":"ooh-bench/v1","commit":"c","experiment":"fig3"}` + "\n", false},
		{"truncated json", good[:40] + "\n", false},
		{"missing experiment", `{"schema":"ooh-trajectory/v1","commit":"c"}` + "\n", false},
	}
	for _, tc := range cases {
		err := ValidateTrajectory(strings.NewReader(tc.body))
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: corruption accepted", tc.name)
		}
	}
}

// TestCheckTrajectory pins the longitudinal gate: fresh pages_per_sec is
// compared against the LAST committed line with the same id; first lines
// and unknown ids pass; drops beyond tolerance fail.
func TestCheckTrajectory(t *testing.T) {
	history := func(perf ...BenchPerf) string {
		var buf bytes.Buffer
		for i, p := range perf {
			if err := AppendTrajectory(&buf, "commit"+string(rune('a'+i)), []BenchPerf{p}); err != nil {
				t.Fatal(err)
			}
		}
		return buf.String()
	}
	base := BenchPerf{ID: "fig3", PagesTracked: 1024, PagesPerSec: 1000, SpeedupVsUncached: 2}

	// First line ever: empty history passes.
	if err := CheckTrajectory(strings.NewReader(""), []BenchPerf{base}, 0.1); err != nil {
		t.Errorf("first line rejected: %v", err)
	}
	// Unknown id: history exists but never measured this experiment.
	other := base
	other.ID = "table1"
	if err := CheckTrajectory(strings.NewReader(history(other)), []BenchPerf{base}, 0.1); err != nil {
		t.Errorf("unknown id rejected: %v", err)
	}
	// Within tolerance passes; the LAST line is the reference (the file
	// has an older, faster line that must not be used).
	older := base
	older.PagesPerSec = 5000
	h := history(older, base)
	within := base
	within.PagesPerSec = 901 // floor is 1000*(1-0.1) = 900
	if err := CheckTrajectory(strings.NewReader(h), []BenchPerf{within}, 0.1); err != nil {
		t.Errorf("within-tolerance drop rejected: %v", err)
	}
	// Beyond tolerance fails, naming the regressed experiment and commit.
	regressed := base
	regressed.PagesPerSec = 899
	err := CheckTrajectory(strings.NewReader(h), []BenchPerf{regressed}, 0.1)
	if err == nil {
		t.Fatal("regression accepted")
	}
	if !strings.Contains(err.Error(), "fig3") || !strings.Contains(err.Error(), "commitb") {
		t.Errorf("regression error lacks id/commit: %v", err)
	}
	// Multiple regressions accumulate.
	h2 := history(base, other)
	r2 := other
	r2.PagesPerSec = 1
	err = CheckTrajectory(strings.NewReader(h2), []BenchPerf{regressed, r2}, 0.1)
	if err == nil || !strings.Contains(err.Error(), "fig3") || !strings.Contains(err.Error(), "table1") {
		t.Errorf("accumulated regressions missing: %v", err)
	}
	// Corrupt history and bad tolerance are themselves errors.
	if err := CheckTrajectory(strings.NewReader("not json\n"), []BenchPerf{base}, 0.1); err == nil {
		t.Error("corrupt history accepted")
	}
	if err := CheckTrajectory(strings.NewReader(""), nil, 1.0); err == nil {
		t.Error("tolerance 1.0 accepted")
	}
	// A NaN tolerance would make the floor NaN, which nothing is below.
	collapsed := base
	collapsed.PagesPerSec = base.PagesPerSec / 1000
	if err := CheckTrajectory(strings.NewReader(h), []BenchPerf{collapsed}, math.NaN()); err == nil {
		t.Error("tolerance NaN accepted")
	}
}

// TestCheckTrajectoryForkSpeedup: against the committed history, a
// fork-vs-boot point (which tracks no pages) is gated on its speedup,
// while fig3 stays gated on pages/s.
func TestCheckTrajectoryForkSpeedup(t *testing.T) {
	hist, err := os.ReadFile("../../BENCH_trajectory.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	check := func(p BenchPerf) error {
		return CheckTrajectory(bytes.NewReader(hist), []BenchPerf{p}, 0.2)
	}
	fork := func(speedup float64) BenchPerf {
		return ForkBench{Pages: 12800, BootWarmNS: 178e4, ForkNS: 1e4, Speedup: speedup}.Perf()
	}
	if p := fork(178); p.PagesTracked != 0 || p.PagesPerSec != 0 {
		t.Fatalf("fork-vs-boot point reports throughput: %+v", p)
	}
	if err := check(fork(178)); err != nil {
		t.Errorf("fork-vs-boot at 178x rejected: %v", err)
	}
	if err := check(fork(100)); err == nil || !strings.Contains(err.Error(), "speedup_vs_uncached") {
		t.Errorf("fork-vs-boot at 100x not rejected on its speedup: %v", err)
	}
	fig3 := BenchPerf{ID: "fig3", PagesTracked: 105216, PagesPerSec: 572410, SpeedupVsUncached: 1}
	if err := check(fig3); err != nil {
		t.Errorf("fig3 at its committed pages/s rejected: %v", err)
	}
	fig3.PagesPerSec = 400000
	fig3.SpeedupVsUncached = 100
	if err := check(fig3); err == nil || !strings.Contains(err.Error(), "pages_per_sec") {
		t.Errorf("fig3 pages/s drop not rejected: %v", err)
	}
}
