package main

import (
	"testing"

	"repro/internal/cliflags"
)

// TestRunRejectsBadFlags pins the CLI contract: every malformed flag
// value makes run return an error (so main exits non-zero), including
// spec-valued flags that would not be consumed this run. The parsing
// helpers themselves are covered in internal/cliflags.
func TestRunRejectsBadFlags(t *testing.T) {
	good := trackFlags{target: cliflags.Target{Workload: "micro", Size: "small", Scale: 1, Seed: 1},
		tech: "epml", passes: 1}
	cases := []struct {
		name   string
		mutate func(*trackFlags)
	}{
		{"bad tech", func(tf *trackFlags) { tf.tech = "pml" }},
		{"bad size", func(tf *trackFlags) { tf.target.Size = "xl" }},
		{"bad trace kind", func(tf *trackFlags) { tf.obs.TraceKinds = "page_party" }},
		{"bad fault point", func(tf *trackFlags) { tf.obs.FaultSpec = "cosmic-ray" }},
		{"bad fault rate", func(tf *trackFlags) { tf.obs.FaultSpec = "ipi-drop:2" }},
		{"bad metrics mode", func(tf *trackFlags) { tf.obs.MetMode = "vibes" }},
		{"bad metrics interval", func(tf *trackFlags) { tf.obs.MetIval = "-3ms" }},
		{"bad export path", func(tf *trackFlags) { tf.obs.MetExport = "m.csv" }},
		{"bad pprof path", func(tf *trackFlags) { tf.obs.Profile = "p.gz" }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tf := good
			c.mutate(&tf)
			if err := run(tf); err == nil {
				t.Fatalf("run(%+v) = nil error, want validation failure", tf)
			}
		})
	}
}

// TestRunCleanPass is the smoke path: a fault-free single-pass run of the
// micro workload succeeds end to end.
func TestRunCleanPass(t *testing.T) {
	tf := trackFlags{target: cliflags.Target{Workload: "micro", Size: "small", Scale: 1, Seed: 1},
		tech: "epml", passes: 1}
	if err := run(tf); err != nil {
		t.Fatal(err)
	}
}
