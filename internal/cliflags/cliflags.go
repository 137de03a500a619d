// Package cliflags holds the flag parsing, validation and export helpers
// shared by the ooh* commands. Every command validates its spec-valued
// flags unconditionally at startup - a typo in -faults or -trace-kinds
// exits non-zero even when the flag would not be consumed that run - and
// this package is where that contract lives, so the commands cannot
// drift apart.
package cliflags

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/costmodel"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/prof"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// ParseTech maps a -tech flag value to a technique.
func ParseTech(s string) (costmodel.Technique, error) {
	switch strings.ToLower(s) {
	case "proc", "/proc":
		return costmodel.Proc, nil
	case "ufd":
		return costmodel.Ufd, nil
	case "spml":
		return costmodel.SPML, nil
	case "epml":
		return costmodel.EPML, nil
	case "oracle":
		return costmodel.Oracle, nil
	}
	return 0, fmt.Errorf("unknown technique %q", s)
}

// ParseBackend validates a -backend flag value against machine.Backends
// and returns the backend it selects. Empty selects
// machine.DefaultBackend() - the OOH_BACKEND environment variable, or
// "sim" - so a bad OOH_BACKEND fails here too, before any output exists.
func ParseBackend(s string) (string, error) {
	name, from := s, ""
	if s == "" {
		name, from = machine.DefaultBackend(), " from OOH_BACKEND"
	}
	if slices.Contains(machine.Backends(), name) {
		return name, nil
	}
	return "", fmt.Errorf("unknown backend %q%s (have %s)", name, from, strings.Join(machine.Backends(), ", "))
}

// BackendUsage is the shared -backend flag help text.
func BackendUsage() string {
	return "hv backend: " + strings.Join(machine.Backends(), ", ") + " (empty = $OOH_BACKEND or sim)"
}

// ParseSize maps a -size flag value to a workload config size.
func ParseSize(s string) (workloads.Size, error) {
	switch strings.ToLower(s) {
	case "small":
		return workloads.Small, nil
	case "medium":
		return workloads.Medium, nil
	case "large":
		return workloads.Large, nil
	}
	return 0, fmt.Errorf("unknown size %q", s)
}

// ParseSpecFlags validates the spec-valued flags. It runs unconditionally
// at startup - even when no trace sink is built - so a typo in
// -trace-kinds or -faults exits non-zero instead of silently running
// without the events or faults the user asked for.
func ParseSpecFlags(traceKinds, faultSpec string) (mask uint64, spec faults.Spec, err error) {
	mask, err = trace.ParseKinds(traceKinds)
	if err != nil {
		return 0, faults.Spec{}, err
	}
	spec, err = faults.ParseSpec(faultSpec)
	if err != nil {
		return 0, faults.Spec{}, err
	}
	return mask, spec, nil
}

// ParseMetricsFlags validates the metrics-valued flags. Like the spec
// flags, validation is unconditional: a bad -metrics sort mode, interval
// or export path exits non-zero even when the flag would be ignored this
// run.
func ParseMetricsFlags(mode, interval, export string) (sortBy string, ival time.Duration, format string, err error) {
	sortBy, err = metrics.ParseSortMode(mode)
	if err != nil {
		return "", 0, "", err
	}
	ival, err = metrics.ParseInterval(interval, time.Millisecond)
	if err != nil {
		return "", 0, "", err
	}
	format, err = metrics.ParseExportPath(export)
	if err != nil {
		return "", 0, "", err
	}
	return sortBy, ival, format, nil
}

// WriteMetricsExport writes the registry snapshot to path in the format
// ParseExportPath derived from its extension.
func WriteMetricsExport(reg *metrics.Registry, path, format string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	snap := reg.Snapshot()
	if format == metrics.ExportJSONL {
		err = snap.WriteJSONL(f)
	} else {
		err = snap.WritePrometheus(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ParsePprofPath validates a -profile flag value: empty disables the
// export, anything else must end in .pb.gz (the suffix `go tool pprof`
// and pprof web UIs expect for gzipped protobuf profiles).
func ParsePprofPath(p string) error {
	p = strings.TrimSpace(p)
	if p == "" || strings.HasSuffix(p, ".pb.gz") {
		return nil
	}
	return fmt.Errorf("pprof profile path %q must end in .pb.gz", p)
}

// WriteProfExports writes the requested profile exports (folded stacks
// and/or gzipped pprof protobuf), returning the paths written.
func WriteProfExports(p *prof.Profiler, flamePath, pprofPath string) ([]string, error) {
	var written []string
	write := func(path string, fn func(*os.File) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return fmt.Errorf("writing profile %s: %w", path, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		written = append(written, path)
		return nil
	}
	if flamePath != "" {
		if err := write(flamePath, func(f *os.File) error { return p.WriteFolded(f) }); err != nil {
			return written, err
		}
	}
	if pprofPath != "" {
		if err := write(pprofPath, func(f *os.File) error { return p.WritePprof(f) }); err != nil {
			return written, err
		}
	}
	return written, nil
}
