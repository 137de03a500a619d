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
