package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/cliflags"
	"repro/internal/criu"
)

func goodFlags() criuFlags {
	return criuFlags{target: cliflags.Target{Workload: "baby", Size: "small", Scale: 1, Seed: 7},
		tech: "epml", rounds: 2}
}

// TestRunRejectsBadFlags pins the CLI contract: every malformed flag
// value makes run return an error (so main exits non-zero), including
// spec-valued flags that would not be consumed this run.
func TestRunRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*criuFlags)
	}{
		{"bad tech", func(cf *criuFlags) { cf.tech = "pml" }},
		{"bad size", func(cf *criuFlags) { cf.target.Size = "xl" }},
		{"bad workload", func(cf *criuFlags) { cf.target.Workload = "doom" }},
		{"bad trace kind", func(cf *criuFlags) { cf.obs.TraceKinds = "page_party" }},
		{"bad fault point", func(cf *criuFlags) { cf.obs.FaultSpec = "cosmic-ray" }},
		{"bad fault rate", func(cf *criuFlags) { cf.obs.FaultSpec = "hc-drain-fail:9" }},
		{"bad metrics mode", func(cf *criuFlags) { cf.obs.MetMode = "vibes" }},
		{"bad metrics interval", func(cf *criuFlags) { cf.obs.MetIval = "never" }},
		{"bad export path", func(cf *criuFlags) { cf.obs.MetExport = "m.csv" }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cf := goodFlags()
			c.mutate(&cf)
			if err := run(cf, io.Discard); err == nil {
				t.Fatalf("run(%+v) = nil error, want validation failure", cf)
			}
		})
	}
}

// TestRunCleanCheckpoint is the smoke path: checkpoint, image write,
// restore and byte-exact verification all succeed fault-free.
func TestRunCleanCheckpoint(t *testing.T) {
	cf := goodFlags()
	cf.out = filepath.Join(t.TempDir(), "baby.img")
	if err := run(cf, io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(cf.out); err != nil {
		t.Fatalf("image file missing: %v", err)
	}
}

// TestRunFaultedCheckpoint checkpoints through the resilient wrapper
// under transient drain faults with observability armed: the run must
// still verify byte-identical restore, and leave the trace and metrics
// exports behind.
func TestRunFaultedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cf := goodFlags()
	cf.tech = "spml"
	cf.obs.FaultSpec = "hc-drain-fail:0.3"
	cf.obs.TraceFile = filepath.Join(dir, "ck.jsonl")
	cf.obs.MetMode = "cost"
	cf.obs.MetExport = filepath.Join(dir, "ck.jsonl.prom")
	if err := run(cf, io.Discard); err != nil {
		t.Fatalf("faulted checkpoint failed: %v", err)
	}
	for _, f := range []string{"ck.jsonl", "ck.jsonl.prom"} {
		if _, serr := os.Stat(filepath.Join(dir, f)); serr != nil {
			t.Errorf("observability file missing after run: %v", serr)
		}
	}
}

// TestRunTrackerUnderFaults pins the tracker rule under armed faults: a
// technique checkpoints through the resilient ladder, but the oracle - the
// ground truth the ladder verifies against - is built bare, so its
// checkpoint charges no init or MD time.
func TestRunTrackerUnderFaults(t *testing.T) {
	summary := regexp.MustCompile(`with (\S+):\n  init (\S+) +MD (\S+) `)
	for _, c := range []struct {
		tech, tracker string
		bare          bool
	}{
		{"oracle", "oracle", true},
		{"spml", "resilient(SPML)", false},
	} {
		cf := goodFlags()
		cf.tech = c.tech
		cf.obs.FaultSpec = "hc-drain-fail:0.3"
		var out bytes.Buffer
		if err := run(cf, &out); err != nil {
			t.Fatalf("-tech %s: %v", c.tech, err)
		}
		m := summary.FindStringSubmatch(out.String())
		if m == nil {
			t.Fatalf("-tech %s: no checkpoint summary in:\n%s", c.tech, out.String())
		}
		if m[1] != c.tracker {
			t.Errorf("-tech %s under faults checkpointed with %s, want %s", c.tech, m[1], c.tracker)
		}
		if free := m[2] == "0" && m[3] == "0"; free != c.bare {
			t.Errorf("-tech %s under faults: init %s, MD %s; want both 0 = %v", c.tech, m[2], m[3], c.bare)
		}
	}
}

// TestRunSLOAbort pins the -budget flag: a budget below one page's dump
// time makes the checkpoint refuse stop-and-copy and abort with
// ErrSLOAbort, the process left running.
func TestRunSLOAbort(t *testing.T) {
	cf := goodFlags()
	cf.budget = time.Nanosecond
	err := run(cf, io.Discard)
	if !errors.Is(err, criu.ErrSLOAbort) {
		t.Fatalf("run with 1ns budget = %v, want ErrSLOAbort", err)
	}
}
