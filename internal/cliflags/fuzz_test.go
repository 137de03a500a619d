package cliflags

import "testing"

// FuzzObsFlagsBuild feeds arbitrary values to every flag Build only
// validates - trace kinds, fault spec, metrics mode, interval and export
// path, alert rules, explain path and pprof path. Build must return an
// error or planes, never panic. -trace stays empty so no file is created.
func FuzzObsFlagsBuild(f *testing.F) {
	f.Add("", "", "", "", "", "", "", "")
	f.Add("vmexit,pml_log", "ipi-drop:0.5,seed=7", "count", "2ms", "m.prom",
		"monitor/dirty_rate_pps{vm0/pml} > 50000 for 2ms", "e.md", "p.pb.gz")
	f.Add("all,nope", "cosmic-ray", "vibes", "-3ms", "m.csv", "burn(", "e.txt", "p.gz")
	f.Fuzz(func(t *testing.T, kinds, spec, mode, ival, export, rules, explain, pprof string) {
		of := ObsFlags{TraceKinds: kinds, FaultSpec: spec, MetMode: mode, MetIval: ival,
			MetExport: export, Rules: rules, Explain: explain, Profile: pprof}
		o, err := of.Build(1)
		if err == nil && o == nil {
			t.Fatal("Build returned neither planes nor an error")
		}
	})
}

// FuzzParseFlagValues feeds one arbitrary value to each of the -tech,
// -size, -backend and oohdiff -format parsers. Each must return an error
// or a value, never panic, and a value it accepts must parse back to
// itself from its canonical name.
func FuzzParseFlagValues(f *testing.F) {
	for _, s := range []string{"", "epml", "/proc", "SPML", "Medium", "large", "sim", "oracle", "md", "json", "folded", "xl", "qemu"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if kind, err := ParseTech(s); err == nil {
			if back, err := ParseTech(kind.String()); err != nil || back != kind {
				t.Errorf("ParseTech(%q) = %v, but its name %q parses to %v, %v", s, kind, kind.String(), back, err)
			}
		}
		if sz, err := ParseSize(s); err == nil {
			if back, err := ParseSize(sz.String()); err != nil || back != sz {
				t.Errorf("ParseSize(%q) = %v, but its name parses to %v, %v", s, sz, back, err)
			}
		}
		if be, err := ParseBackend(s); err == nil {
			if back, err := ParseBackend(be); err != nil || back != be {
				t.Errorf("ParseBackend(%q) = %q, but it parses to %q, %v", s, be, back, err)
			}
		}
		if format, err := ParseDiffFormat(s); err == nil {
			if back, err := ParseDiffFormat(format); err != nil || back != format {
				t.Errorf("ParseDiffFormat(%q) = %q, but it parses to %q, %v", s, format, back, err)
			}
		}
	})
}
