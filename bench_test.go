package ooh_test

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (§VI). Each benchmark regenerates its experiment
// through internal/experiments and reports headline numbers as custom
// metrics, so `go test -bench=. -benchmem` reproduces the entire
// evaluation. Absolute values come from the calibrated virtual-time model;
// the shapes (who wins, by what factor, where crossovers fall) are the
// reproduction targets - see EXPERIMENTS.md for paper-vs-measured.

import (
	"testing"

	"repro/internal/costmodel"
	"repro/internal/experiments"
	"repro/internal/tracking"
	"repro/internal/workloads"
)

// benchOpt keeps bench runs at the default (scaled) sizes.
func benchOpt() experiments.Options {
	return experiments.Options{Scale: 1}
}

// runExperiment executes one experiment per benchmark iteration. Besides
// ns/op it reports pages-tracked/s: simulated dirty page addresses the
// tracking techniques delivered per host second, the counter perfbench's
// pages_per_s divides by host time too.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	tracking.ResetPagesReported()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, benchOpt())
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(res.Tables) == 0 {
			b.Fatalf("%s: no tables", id)
		}
	}
	if pages, secs := tracking.PagesReported(), b.Elapsed().Seconds(); pages > 0 && secs > 0 {
		b.ReportMetric(float64(pages)/secs, "pages-tracked/s")
	}
}

// BenchmarkTable1 regenerates Table I (ufd and /proc overhead on Tracked
// and Tracker across memory sizes).
func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2 regenerates Table II (implementation size inventory).
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkTable4 regenerates Table IV (formula validation).
func BenchmarkTable4(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkTable5 regenerates Table V (basic costs of M1-M18).
func BenchmarkTable5(b *testing.B) { runExperiment(b, "table5") }

// BenchmarkTable6 regenerates Table VI (metric influence analysis).
func BenchmarkTable6(b *testing.B) { runExperiment(b, "table6") }

// BenchmarkFig3 regenerates Fig. 3 (SPML collection breakdown).
func BenchmarkFig3(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFig4 regenerates Fig. 4 (microbenchmark slowdown per technique).
func BenchmarkFig4(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig5 regenerates Fig. 5 (Boehm GC time per technique).
func BenchmarkFig5(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6 regenerates Fig. 6 (Boehm impact on the application).
func BenchmarkFig6(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7 regenerates Fig. 7 (CRIU memory-write time).
func BenchmarkFig7(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8 regenerates Fig. 8 (CRIU complete checkpoint time).
func BenchmarkFig8(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9 regenerates Fig. 9 (CRIU impact on the application).
func BenchmarkFig9(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10 regenerates Fig. 10 (tracker scalability across VMs).
func BenchmarkFig10(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11 regenerates Fig. 11 (tracked scalability across VMs).
func BenchmarkFig11(b *testing.B) { runExperiment(b, "fig11") }

// --- ablation benches (DESIGN.md §5) -------------------------------------------

// BenchmarkAblationPMLBufferSize sweeps the PML buffer capacity. The
// architectural 512 entries balance vmexit frequency against drain size;
// this ablation shows the EPML self-IPI rate scaling with buffer size.
func BenchmarkAblationPMLBufferSize(b *testing.B) {
	// The buffer size is architectural (4 KiB page); the ablation varies
	// the *ring* capacity instead, which is the designable knob in OoH.
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationRingCapacity()
		if err != nil {
			b.Fatal(err)
		}
		_ = r
	}
}

// BenchmarkAblationTimeSlice varies the scheduler time slice, which drives
// N (context switches) - the term separating SPML's hypercall pair from
// EPML's vmwrite pair in Formula 4.
func BenchmarkAblationTimeSlice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationTimeSlice()
		if err != nil {
			b.Fatal(err)
		}
		_ = r
	}
}

// BenchmarkTechniqueCollect measures one collection of each technique on a
// 10 MB dirty set - the per-call cost a Tracker integrator cares about.
func BenchmarkTechniqueCollect(b *testing.B) {
	for _, kind := range []costmodel.Technique{costmodel.Proc, costmodel.Ufd, costmodel.SPML, costmodel.EPML} {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := experiments.OneCollect(kind, 10<<8)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(r.Breakdown.CollectTime.Nanoseconds())/1e6, "virtual-ms/collect")
			}
		})
	}
}

// BenchmarkWorkloads measures the simulator's host-side throughput running
// each workload once (engineering metric, not a paper figure).
func BenchmarkWorkloads(b *testing.B) {
	for _, name := range workloads.Names() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := experiments.OneWorkloadPass(name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
