package main

import (
	"testing"
	"time"

	"repro/internal/cliflags"
	"repro/internal/metrics"
)

// TestParseSpecFlags pins the always-on validation run applies to the
// spec-valued flags through cliflags.ParseSpecFlags: unknown -trace-kinds
// or -faults tokens must be rejected regardless of whether the run would
// have consumed them.
func TestParseSpecFlags(t *testing.T) {
	cases := []struct {
		name       string
		traceKinds string
		faultSpec  string
		wantErr    bool
	}{
		{name: "both empty", traceKinds: "", faultSpec: "", wantErr: false},
		{name: "valid kinds", traceKinds: "vmexit,hypercall", faultSpec: "", wantErr: false},
		{name: "unknown kind", traceKinds: "vmexit,warpcore", faultSpec: "", wantErr: true},
		{name: "valid fault spec", traceKinds: "", faultSpec: "ipi-drop:0.5,epml-absent", wantErr: false},
		{name: "fault seed token", traceKinds: "", faultSpec: "ipi-drop,seed=7", wantErr: false},
		{name: "unknown fault point", traceKinds: "", faultSpec: "ipi-teleport:0.5", wantErr: true},
		{name: "fault rate out of range", traceKinds: "", faultSpec: "ipi-drop:1.5", wantErr: true},
		{name: "fault rate not a number", traceKinds: "", faultSpec: "ipi-drop:lots", wantErr: true},
		{name: "both valid", traceKinds: "fault,track_rescan", faultSpec: "pml-entry-loss:0.2", wantErr: false},
		{name: "kinds bad, spec good", traceKinds: "nope", faultSpec: "ipi-drop", wantErr: true},
		{name: "kinds good, spec bad", traceKinds: "vmexit", faultSpec: "nope", wantErr: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mask, spec, err := cliflags.ParseSpecFlags(c.traceKinds, c.faultSpec)
			if (err != nil) != c.wantErr {
				t.Fatalf("ParseSpecFlags(%q, %q) err = %v, wantErr %v", c.traceKinds, c.faultSpec, err, c.wantErr)
			}
			if err != nil {
				return
			}
			if c.traceKinds != "" && mask == 0 {
				t.Errorf("non-empty kinds %q produced empty mask", c.traceKinds)
			}
			if c.faultSpec != "" && spec.Empty() {
				t.Errorf("non-empty fault spec %q parsed to an empty spec", c.faultSpec)
			}
		})
	}
}

// TestParseMetricsFlags pins the always-on validation run applies to the
// -metrics, -metrics-interval and -metrics-export flags through
// cliflags.ParseMetricsFlags: bad values are rejected up front so the CLI
// exits non-zero before running any experiment.
func TestParseMetricsFlags(t *testing.T) {
	cases := []struct {
		name     string
		mode     string
		interval string
		export   string
		wantSort string
		wantIval time.Duration
		wantFmt  string
		wantErr  bool
	}{
		{name: "all empty", wantIval: time.Millisecond},
		{name: "sort by count", mode: "count", wantSort: metrics.SortByCount, wantIval: time.Millisecond},
		{name: "sort by cost", mode: "cost", wantSort: metrics.SortByCost, wantIval: time.Millisecond},
		{name: "bad sort mode", mode: "alphabetical", wantErr: true},
		{name: "custom interval", interval: "2ms", wantIval: 2 * time.Millisecond},
		{name: "bad interval", interval: "soon", wantErr: true},
		{name: "negative interval", interval: "-5us", wantErr: true},
		{name: "prom export", export: "snap.prom", wantIval: time.Millisecond, wantFmt: metrics.ExportProm},
		{name: "jsonl export", export: "snap.jsonl", wantIval: time.Millisecond, wantFmt: metrics.ExportJSONL},
		{name: "bad export extension", export: "snap.xml", wantErr: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sortBy, ival, format, err := cliflags.ParseMetricsFlags(c.mode, c.interval, c.export)
			if (err != nil) != c.wantErr {
				t.Fatalf("ParseMetricsFlags(%q, %q, %q) err = %v, wantErr %v",
					c.mode, c.interval, c.export, err, c.wantErr)
			}
			if err != nil {
				return
			}
			if sortBy != c.wantSort || ival != c.wantIval || format != c.wantFmt {
				t.Errorf("ParseMetricsFlags(%q, %q, %q) = (%q, %v, %q), want (%q, %v, %q)",
					c.mode, c.interval, c.export, sortBy, ival, format, c.wantSort, c.wantIval, c.wantFmt)
			}
		})
	}
}

// TestParseJSONPath pins the -json path validation: stdout, .json files,
// or nothing.
func TestParseJSONPath(t *testing.T) {
	cases := []struct {
		in      string
		wantErr bool
	}{
		{in: ""},
		{in: "-"},
		{in: "BENCH_fig3.json"},
		{in: "out/dir/report.json"},
		{in: "report.txt", wantErr: true},
		{in: "report.json.bak", wantErr: true},
		{in: "--", wantErr: true},
	}
	for _, c := range cases {
		if err := parseJSONPath(c.in); (err != nil) != c.wantErr {
			t.Errorf("parseJSONPath(%q) err = %v, wantErr %v", c.in, err, c.wantErr)
		}
	}
}
