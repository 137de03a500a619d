package cliflags

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/prof"
	"repro/internal/trace"
)

// ObsFlags bundles the observability and fault-injection flags the ooh*
// commands share, with the same names and semantics everywhere. Register
// installs -faults, -trace, -trace-kinds, -metrics, -metrics-interval,
// -metrics-export, -mon, -rules and -explain; RegisterProf adds the
// profiler's -prof, -flame and -profile.
type ObsFlags struct {
	FaultSpec  string
	TraceFile  string
	TraceKinds string
	MetMode    string
	MetIval    string
	MetExport  string
	Mon        bool
	Rules      string
	Explain    string
	Prof       bool
	Flame      string
	Profile    string
	// Summary carries oohtrack's -summary: the trace is teed into memory
	// and Report prints its per-kind cost table.
	Summary bool
	// Capture is set when oohbench's -capture names a directory: the
	// bundle is made of the metrics registry and the profiler, so Build
	// constructs both even when no other flag asks for them.
	Capture bool
	// FaultRow makes -faults the fault-matrix experiment's custom row
	// (oohbench) instead of a live injector: Register says so in its
	// usage, and Build validates the spec but arms no injector.
	FaultRow bool
}

// Register installs the shared flags on the default flag set. Call before
// flag.Parse.
func (of *ObsFlags) Register() {
	faultsUsage := "inject faults per this spec (e.g. \"send-fail:0.2,wire-corrupt:0.1\")"
	if of.FaultRow {
		faultsUsage = "fault spec for the fault-matrix experiment's custom row (faults.ParseSpec grammar)"
	}
	flag.StringVar(&of.FaultSpec, "faults", "", faultsUsage)
	flag.StringVar(&of.TraceFile, "trace", "", "write a JSONL event trace to this file")
	flag.StringVar(&of.TraceKinds, "trace-kinds", "", "comma-separated event kinds to trace (empty or \"all\" = every kind)")
	flag.StringVar(&of.MetMode, "metrics", "", "print a kvm_stat-style metrics table after the run, sorted by 'count' or 'cost'")
	flag.StringVar(&of.MetIval, "metrics-interval", "", "virtual-time sampling interval for metrics time-series (default 1ms)")
	flag.StringVar(&of.MetExport, "metrics-export", "", "write a metrics snapshot to this file (.prom/.txt = Prometheus text, .jsonl = JSON lines)")
	flag.BoolVar(&of.Mon, "mon", false, "enable the online monitor plane (dirty-rate estimators, convergence predictor, alert timeline)")
	flag.StringVar(&of.Rules, "rules", "", "alert rules evaluated online (e.g. \"monitor/dirty_rate_pps{vm0/pml} > 50000 for 2ms\"); implies -mon")
	flag.StringVar(&of.Explain, "explain", "", "write a run-explain report to this file (.md = markdown, .json = ooh-explain/v1); implies -mon")
}

// RegisterProf installs the profiler flags on the default flag set. Call
// before flag.Parse.
func (of *ObsFlags) RegisterProf() {
	flag.BoolVar(&of.Prof, "prof", false, "profile the run and print top-frame and critical-path tables")
	flag.StringVar(&of.Flame, "flame", "", "write a folded-stack virtual-time profile (flamegraph.pl input) to this file")
	flag.StringVar(&of.Profile, "profile", "", "write a gzipped pprof profile of virtual time to this .pb.gz file")
}

// Obs is the built observability plane: carry it into a machine with
// Config (or wire its planes into experiments.Options), then Report when
// the run ends. Any plane may be nil when the corresponding flags are
// unset; the machine config and the methods here tolerate that.
type Obs struct {
	Tracer   *trace.Tracer
	Faults   *faults.Injector
	Metrics  *metrics.Registry
	Monitor  *monitor.Monitor
	Profiler *prof.Profiler
	// ExplainTitle names the run in the explain report; commands set it
	// to their workload/scenario description before calling Report.
	ExplainTitle string

	of        ObsFlags
	memory    *trace.Memory // the -summary sink
	sortBy    string
	exportFmt string
	closed    bool
}

// Build validates every ObsFlags value (unconditionally - a typo exits
// non-zero even if the flag would be unused) and constructs the planes
// the flags ask for.
func (of ObsFlags) Build(seed uint64) (*Obs, error) {
	mask, spec, err := ParseSpecFlags(of.TraceKinds, of.FaultSpec)
	if err != nil {
		return nil, err
	}
	sortBy, ival, exportFmt, err := ParseMetricsFlags(of.MetMode, of.MetIval, of.MetExport)
	if err != nil {
		return nil, err
	}
	// Like -faults and -trace-kinds, the rule spec and report paths are
	// validated whether or not their plane ends up used this run.
	rules, err := monitor.ParseRules(of.Rules)
	if err != nil {
		return nil, err
	}
	if err := ParseExplainPath(of.Explain); err != nil {
		return nil, err
	}
	if err := ParsePprofPath(of.Profile); err != nil {
		return nil, err
	}
	o := &Obs{of: of, sortBy: sortBy, exportFmt: exportFmt}
	if of.TraceFile != "" || of.Summary {
		var sinks []trace.Sink
		if of.TraceFile != "" {
			f, err := os.Create(of.TraceFile)
			if err != nil {
				return nil, err
			}
			sinks = append(sinks, trace.NewJSONLWriter(f))
		}
		if of.Summary {
			o.memory = &trace.Memory{}
			sinks = append(sinks, o.memory)
		}
		o.Tracer = trace.New(trace.Tee(sinks...), 0)
		o.Tracer.SetMask(mask)
	}
	if !spec.Empty() && !of.FaultRow {
		o.Faults = faults.New(spec, seed)
	}
	if sortBy != "" || exportFmt != "" || of.Capture {
		o.Metrics = metrics.NewRegistry()
		o.Metrics.NewSampler(ival)
	}
	if of.Mon || of.Rules != "" || of.Explain != "" {
		if o.Metrics == nil {
			// The monitor publishes gauges and evaluates rules against a
			// registry; make one even when no metrics output was asked for.
			o.Metrics = metrics.NewRegistry()
		}
		o.Monitor = monitor.New(monitor.Config{Rules: rules})
	}
	// The explain report's round attribution comes from the profiler's
	// critical-path analysis.
	if of.Prof || of.Flame != "" || of.Profile != "" || of.Explain != "" || of.Capture {
		o.Profiler = prof.New()
	}
	return o, nil
}

// Config returns the planes as the machine.Config that carries them into
// a booted machine.
func (o *Obs) Config() machine.Config {
	return machine.Config{Tracer: o.Tracer, Faults: o.Faults, Metrics: o.Metrics,
		Profiler: o.Profiler, Monitor: o.Monitor}
}

// Close settles the trace file. Only the first call reports a close
// error; later calls and a nil Obs return nil, so commands can defer it
// to cover the paths that never reach Report without reporting one
// error twice.
func (o *Obs) Close() error {
	if o == nil || o.closed {
		return nil
	}
	o.closed = true
	if err := o.Tracer.Close(); err != nil {
		return fmt.Errorf("closing trace: %w", err)
	}
	return nil
}

// Report closes the trace, then prints the post-run observability block
// to w - injected fault counts, the trace summary and trace-file line,
// metrics tables, profile tables, the monitor's alert timeline - and
// writes every export the flags ask for. The trace closes first so its
// file is complete, and its loss count folded into the metrics, before
// anything is printed or exported; a close error does not stop the
// report and is returned with any export error.
func (o *Obs) Report(w io.Writer) (err error) {
	if o == nil {
		return nil
	}
	closeErr := o.Close()
	defer func() { err = errors.Join(closeErr, err) }()
	if o.Faults.Armed() {
		fmt.Fprintf(w, "\nfaults injected: %d (%s)\n", o.Faults.Total(), faults.RenderCounts(o.Faults.Counts()))
	}
	if o.Tracer != nil {
		// The trace plane's own health matters: a lossy sink means every
		// count undercounts.
		o.Metrics.Counter("trace", "records_dropped", "").Add(int64(o.Tracer.Dropped()))
		if o.memory != nil {
			fmt.Fprintf(w, "\n%s", trace.SummaryTableFor(o.Tracer, o.memory.Records()).Render())
		}
		if o.of.TraceFile != "" {
			fmt.Fprintf(w, "\ntrace: %d records written to %s\n", o.Tracer.Emitted(), o.of.TraceFile)
		}
	}
	if o.sortBy != "" {
		for _, tab := range metrics.StatTables(o.Metrics, o.sortBy) {
			fmt.Fprintf(w, "\n%s", tab.Render())
		}
	}
	if o.exportFmt != "" {
		if err := WriteMetricsExport(o.Metrics, o.of.MetExport, o.exportFmt); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nmetrics: snapshot written to %s\n", o.of.MetExport)
	}
	if o.of.Prof {
		fmt.Fprintf(w, "\n%s", o.Profiler.TopTable(20).Render())
		if tab := o.Profiler.CriticalPathTable(); tab != nil {
			fmt.Fprintf(w, "\n%s", tab.Render())
		}
	}
	written, err := WriteProfExports(o.Profiler, o.of.Flame, o.of.Profile)
	if err != nil {
		return err
	}
	if len(written) > 0 {
		fmt.Fprintf(w, "\nprofile: written to %s\n", strings.Join(written, ", "))
	}
	if o.Monitor != nil {
		alerts := o.Monitor.Alerts()
		fmt.Fprintf(w, "\nmonitor: %d alert(s), %d prediction(s)\n",
			len(alerts), len(o.Monitor.Predictions()))
		for _, a := range alerts {
			fmt.Fprintf(w, "  [%12d ns] %-8s %s (value %d, threshold %d)\n",
				a.TS, a.State, a.Rule, a.Value, a.Threshold)
		}
	}
	if o.of.Explain != "" {
		if err := WriteExplain(o.of.Explain, o.ExplainTitle, o.Monitor, o.Metrics, o.Profiler); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nexplain: report written to %s\n", o.of.Explain)
	}
	return nil
}
