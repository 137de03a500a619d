package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cliflags"
	"repro/internal/migration"
)

func goodFlags() migrateFlags {
	return migrateFlags{target: cliflags.Target{Workload: "micro", Size: "small", Scale: 1, Seed: 7},
		rounds: 4, bw: 256, resumes: 3}
}

// TestRunRejectsBadFlags pins the CLI contract: every malformed flag
// value makes run return an error (so main exits non-zero), including
// spec-valued flags that would not be consumed this run.
func TestRunRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*migrateFlags)
	}{
		{"bad size", func(mf *migrateFlags) { mf.target.Size = "xl" }},
		{"bad workload", func(mf *migrateFlags) { mf.target.Workload = "doom" }},
		{"bad trace kind", func(mf *migrateFlags) { mf.obs.TraceKinds = "page_party" }},
		{"bad fault point", func(mf *migrateFlags) { mf.obs.FaultSpec = "cosmic-ray" }},
		{"bad fault rate", func(mf *migrateFlags) { mf.obs.FaultSpec = "send-fail:2" }},
		{"bad metrics mode", func(mf *migrateFlags) { mf.obs.MetMode = "vibes" }},
		{"bad metrics interval", func(mf *migrateFlags) { mf.obs.MetIval = "-3ms" }},
		{"bad export path", func(mf *migrateFlags) { mf.obs.MetExport = "m.csv" }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mf := goodFlags()
			c.mutate(&mf)
			if err := run(mf); err == nil {
				t.Fatalf("run(%+v) = nil error, want validation failure", mf)
			}
		})
	}
}

// TestRunCleanMigration is the smoke path: a fault-free migration with a
// concurrent SPML session completes.
func TestRunCleanMigration(t *testing.T) {
	mf := goodFlags()
	mf.spml = true
	if err := run(mf); err != nil {
		t.Fatal(err)
	}
}

// TestRunFaultedMigration drives the transactional path end to end from
// the CLI layer: transport faults injected, observability armed, journal
// resumes allowed. The run must either complete or abort with one of the
// typed migration errors (a clean abort) - never an untyped failure -
// and the trace/metrics files must exist either way.
func TestRunFaultedMigration(t *testing.T) {
	dir := t.TempDir()
	mf := goodFlags()
	mf.spml = true
	mf.retries = 8
	mf.obs.FaultSpec = "send-fail:0.1,wire-corrupt:0.1,round-crash:0.3"
	mf.obs.TraceFile = filepath.Join(dir, "mig.jsonl")
	mf.obs.MetMode = "count"
	mf.obs.MetExport = filepath.Join(dir, "mig.prom")
	err := run(mf)
	if err != nil &&
		!errors.Is(err, migration.ErrRoundCrash) &&
		!errors.Is(err, migration.ErrSendFailed) &&
		!errors.Is(err, migration.ErrSLOAbort) {
		t.Fatalf("faulted migration failed without a typed abort: %v", err)
	}
	for _, f := range []string{"mig.jsonl", "mig.prom"} {
		if _, serr := os.Stat(filepath.Join(dir, f)); serr != nil {
			t.Errorf("observability file missing after run: %v", serr)
		}
	}
}

// TestRunSLOAbort pins the -budget flag: a budget far below one page's
// transfer time makes the migration refuse stop-and-copy and abort with
// ErrSLOAbort once rounds are exhausted.
func TestRunSLOAbort(t *testing.T) {
	mf := goodFlags()
	mf.rounds = 2
	mf.budget = time.Nanosecond
	err := run(mf)
	if !errors.Is(err, migration.ErrSLOAbort) {
		t.Fatalf("run with 1ns budget = %v, want ErrSLOAbort", err)
	}
}
