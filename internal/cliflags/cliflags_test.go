package cliflags

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func TestParseTech(t *testing.T) {
	cases := []struct {
		in      string
		want    costmodel.Technique
		wantErr bool
	}{
		{in: "proc", want: costmodel.Proc},
		{in: "/proc", want: costmodel.Proc},
		{in: "ufd", want: costmodel.Ufd},
		{in: "spml", want: costmodel.SPML},
		{in: "EPML", want: costmodel.EPML},
		{in: "oracle", want: costmodel.Oracle},
		{in: "pml", wantErr: true},
		{in: "", wantErr: true},
	}
	for _, c := range cases {
		got, err := ParseTech(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseTech(%q) err = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseTech(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseSize(t *testing.T) {
	cases := []struct {
		in      string
		want    workloads.Size
		wantErr bool
	}{
		{in: "small", want: workloads.Small},
		{in: "Medium", want: workloads.Medium},
		{in: "large", want: workloads.Large},
		{in: "xl", wantErr: true},
	}
	for _, c := range cases {
		got, err := ParseSize(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseSize(%q) err = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseSize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestParseSpecFlags pins the always-on validation: unknown -trace-kinds or
// -faults tokens are rejected even when no trace sink or injector is built.
func TestParseSpecFlags(t *testing.T) {
	cases := []struct {
		name       string
		traceKinds string
		faultSpec  string
		wantErr    bool
	}{
		{name: "both empty", traceKinds: "", faultSpec: ""},
		{name: "valid kinds", traceKinds: "track_init,track_collect"},
		{name: "unknown kind", traceKinds: "page_party", wantErr: true},
		{name: "valid fault spec", faultSpec: "hc-enable-fail:0.3,ufd-absent"},
		{name: "transport fault spec", faultSpec: "send-fail:0.2,wire-corrupt:0.1,dest-stall:0.3,round-crash:0.1"},
		{name: "unknown fault point", faultSpec: "cosmic-ray", wantErr: true},
		{name: "bad fault rate", faultSpec: "ipi-drop:-1", wantErr: true},
		{name: "fault rate out of range", faultSpec: "ipi-drop:1.5", wantErr: true},
		{name: "fault rate not a number", faultSpec: "ipi-drop:lots", wantErr: true},
		{name: "fault seed token", faultSpec: "ipi-drop,seed=7"},
		{name: "both valid", traceKinds: "fault", faultSpec: "collect-stall:0.1"},
		{name: "kinds bad, spec good", traceKinds: "nope", faultSpec: "ipi-drop", wantErr: true},
		{name: "kinds good, spec bad", traceKinds: "vmexit", faultSpec: "nope", wantErr: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mask, spec, err := ParseSpecFlags(c.traceKinds, c.faultSpec)
			if (err != nil) != c.wantErr {
				t.Fatalf("ParseSpecFlags(%q, %q) err = %v, wantErr %v", c.traceKinds, c.faultSpec, err, c.wantErr)
			}
			if err != nil {
				return
			}
			if c.traceKinds != "" && mask == 0 {
				t.Errorf("non-empty kinds %q produced an empty mask", c.traceKinds)
			}
			if c.faultSpec != "" && spec.Empty() {
				t.Errorf("non-empty fault spec %q parsed to an empty spec", c.faultSpec)
			}
		})
	}
}

// TestParseMetricsFlags pins the always-on validation of the metrics
// flags: bad sort modes, intervals or export paths must be rejected up
// front so the CLI exits non-zero before running anything.
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
		{name: "bad sort mode", mode: "vibes", wantErr: true},
		{name: "custom interval", mode: "count", interval: "250us", wantSort: metrics.SortByCount, wantIval: 250 * time.Microsecond},
		{name: "bad interval", interval: "fast", wantErr: true},
		{name: "negative interval", interval: "-1ms", wantErr: true},
		{name: "zero interval", interval: "0s", wantErr: true},
		{name: "prom export", export: "m.prom", wantIval: time.Millisecond, wantFmt: metrics.ExportProm},
		{name: "txt export", export: "m.txt", wantIval: time.Millisecond, wantFmt: metrics.ExportProm},
		{name: "jsonl export", export: "m.jsonl", wantIval: time.Millisecond, wantFmt: metrics.ExportJSONL},
		{name: "bad export extension", export: "m.csv", wantErr: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sortBy, ival, format, err := ParseMetricsFlags(c.mode, c.interval, c.export)
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

func TestRenderCounts(t *testing.T) {
	if got := faults.RenderCounts(nil); got != "-" {
		t.Errorf("RenderCounts(nil) = %q, want \"-\"", got)
	}
	got := faults.RenderCounts(map[string]uint64{"ipi-drop": 3, "collect-stall": 1})
	if want := "collect-stall:1 ipi-drop:3"; got != want {
		t.Errorf("RenderCounts = %q, want %q", got, want)
	}
}

// TestObsBuildValidation pins that Build rejects every malformed flag
// value - the shared half of each command's exit-non-zero contract.
func TestObsBuildValidation(t *testing.T) {
	cases := []struct {
		name    string
		of      ObsFlags
		wantErr string
	}{
		{name: "all empty", of: ObsFlags{}},
		{name: "bad fault point", of: ObsFlags{FaultSpec: "warp-core-breach"}, wantErr: "fault"},
		{name: "bad fault rate", of: ObsFlags{FaultSpec: "send-fail:7"}, wantErr: "rate"},
		{name: "bad trace kind", of: ObsFlags{TraceKinds: "vibes"}, wantErr: "kind"},
		{name: "bad metrics mode", of: ObsFlags{MetMode: "vibes"}, wantErr: "sort"},
		{name: "bad metrics interval", of: ObsFlags{MetIval: "soon"}, wantErr: "interval"},
		{name: "bad export extension", of: ObsFlags{MetExport: "m.csv"}, wantErr: "export"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o, err := c.of.Build(1)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("Build: %v", err)
				}
				if o.Tracer != nil || o.Faults != nil || o.Metrics != nil {
					t.Errorf("empty flags built non-nil planes: %+v", o)
				}
				return
			}
			if err == nil {
				t.Fatalf("Build(%+v) = nil error, want one mentioning %q", c.of, c.wantErr)
			}
			if !strings.Contains(strings.ToLower(err.Error()), c.wantErr) {
				t.Errorf("Build error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

// TestObsBuildPlanes checks the armed path: a full flag set builds all
// three planes and Close/Report settle the trace file.
func TestObsBuildPlanes(t *testing.T) {
	dir := t.TempDir()
	of := ObsFlags{
		FaultSpec: "send-fail:0.5",
		TraceFile: filepath.Join(dir, "t.jsonl"),
		MetMode:   "count",
		MetExport: filepath.Join(dir, "m.prom"),
	}
	o, err := of.Build(7)
	if err != nil {
		t.Fatal(err)
	}
	if o.Tracer == nil || !o.Faults.Armed() || o.Metrics == nil {
		t.Fatalf("armed flags built %+v", o)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := o.Report(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"trace:", "metrics: snapshot written"} {
		if !strings.Contains(out, want) {
			t.Errorf("Report output missing %q:\n%s", want, out)
		}
	}
}

// TestObsReportClosesTraceFirst pins that Report settles the trace before
// it exports anything: with every record of a trace on /dev/full
// dropped, the metrics export must already count them, and the close
// error must still reach the caller.
func TestObsReportClosesTraceFirst(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	export := filepath.Join(t.TempDir(), "m.prom")
	o, err := ObsFlags{TraceFile: "/dev/full", MetExport: export}.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 100 {
		o.Tracer.Emit(trace.Record{Kind: trace.KindVMExit, TS: int64(i)})
	}
	if err := o.Report(io.Discard); err == nil {
		t.Error("Report on a trace that could not be written returned nil")
	}
	data, err := os.ReadFile(export)
	if err != nil {
		t.Fatal(err)
	}
	if want := "ooh_trace_records_dropped 100\n"; !strings.Contains(string(data), want) {
		t.Errorf("metrics export lacks %q:\n%s", want, data)
	}
}

// TestTargetBootValidatesFirst pins Boot's order: a bad -size, -backend
// or (with -backend empty) OOH_BACKEND fails before -trace creates its
// file, while an unknown workload, only found once the machine boots,
// fails after it.
func TestTargetBootValidatesFirst(t *testing.T) {
	good := Target{Workload: "micro", Size: "small", Scale: 1, Seed: 1}
	cases := []struct {
		name   string
		env    string // OOH_BACKEND
		mutate func(*Target)
		traced bool
		errHas string
	}{
		{"bad size", "", func(tg *Target) { tg.Size = "xl" }, false, `"xl"`},
		{"bad backend", "", func(tg *Target) { tg.Backend = "qemu" }, false, `"qemu"`},
		{"bad OOH_BACKEND", "qemu", func(*Target) {}, false, `"qemu"`},
		{"bad workload", "", func(tg *Target) { tg.Workload = "doom" }, true, `"doom"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Setenv("OOH_BACKEND", c.env)
			tg := good
			c.mutate(&tg)
			path := filepath.Join(t.TempDir(), "t.jsonl")
			_, err := tg.Boot(ObsFlags{TraceFile: path})
			if err == nil {
				t.Fatal("Boot succeeded")
			}
			if !strings.Contains(err.Error(), c.errHas) {
				t.Errorf("error %q does not name %s", err, c.errHas)
			}
			if _, err := os.Stat(path); (err == nil) != c.traced {
				t.Errorf("trace file created = %v, want %v", err == nil, c.traced)
			}
		})
	}
}
