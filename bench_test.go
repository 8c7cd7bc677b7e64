package wbsim_test

// The benchmark harness regenerates every table and figure of the
// paper's evaluation. Run with:
//
//	go test -bench=. -benchmem -benchtime=1x
//
// Each benchmark executes the corresponding experiment once per
// iteration, reports the headline aggregate through b.ReportMetric, and
// logs the full figure table (visible with -v).

import (
	"fmt"
	"testing"

	"wbsim/internal/core"
	"wbsim/internal/experiments"
	"wbsim/internal/litmus"
	"wbsim/internal/stats"
	"wbsim/internal/workload"
)

func benchOptions() experiments.Options {
	return experiments.Options{Cores: 16, Scale: 2, Seed: 1}
}

// benchEngine is shared by every experiment benchmark: simulations are
// memoized by their canonical (workload, config, scale) identity, so
// combinations that several figures need — and figures regenerated by
// more than one benchmark, like Fig8 below — are simulated exactly once
// across the whole suite. TestBenchEngineSharing (internal/experiments)
// asserts this via the cache-hit counter.
var benchEngine = experiments.NewEngine(0)

// BenchmarkTable2Litmus regenerates the Table 1/Table 2 result: the
// forbidden {new, old} outcome never appears under any sound variant of
// the hit-under-miss message-passing test. The variant list is the full
// registry-derived matrix, so a newly registered protocol is asserted
// here automatically.
func BenchmarkTable2Litmus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		test := litmus.MPHitUnderMiss()
		opts := litmus.Options{Seeds: 40, Jitter: 24}
		violations := 0
		runs := 0
		for _, v := range core.SoundVariants() {
			res := litmus.Run(test, v, opts)
			violations += res.Violations
			runs += res.Runs
		}
		if violations != 0 {
			b.Fatalf("TSO violations under sound variants: %d", violations)
		}
		b.ReportMetric(float64(runs), "litmus-runs/op")
	}
}

// BenchmarkFig8BlockedWrites regenerates Figure 8 (top): write requests
// blocked per kilo-store across benchmarks and core classes.
func BenchmarkFig8BlockedWrites(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := benchEngine.Fig8(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", t)
		b.ReportMetric(maxCol(t, 2), "max-blocked-writes/kstore")
	}
}

// BenchmarkFig8UncacheableReads regenerates Figure 8 (bottom):
// uncacheable tear-off reads per kilo-load.
func BenchmarkFig8UncacheableReads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := benchEngine.Fig8(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", t)
		b.ReportMetric(maxCol(t, 3), "max-uncacheable-reads/kload")
	}
}

// BenchmarkFig9ExecutionTime regenerates Figure 9 (top): execution time
// of WritersBlock coherence normalized to the base protocol.
func BenchmarkFig9ExecutionTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := benchEngine.Fig9(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", t)
		b.ReportMetric(lastRowCol(t, 1), "geomean-exec-time")
	}
}

// BenchmarkFig9Traffic regenerates Figure 9 (bottom): network traffic of
// WritersBlock coherence normalized to the base protocol.
func BenchmarkFig9Traffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := benchEngine.Fig9(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", t)
		b.ReportMetric(lastRowCol(t, 2), "geomean-traffic")
	}
}

// BenchmarkFig10Stalls regenerates Figure 10 (top): the commit-stall
// breakdown (ROB/LQ/SQ full) for the three commit schemes.
func BenchmarkFig10Stalls(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := benchEngine.Fig10Stalls(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", t)
		b.ReportMetric(float64(t.NumRows()), "rows")
	}
}

// BenchmarkFig10ExecutionTime regenerates Figure 10 (bottom): normalized
// execution time of OoO commit and OoO+WritersBlock vs in-order commit.
// The paper reports 15.4% avg / 41.9% max improvement over in-order and
// 10.2% avg / 28.3% max over safe OoO commit.
func BenchmarkFig10ExecutionTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := benchEngine.Fig10Time(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", r.Table)
		b.ReportMetric(r.AvgVsInOrder, "avg-%-vs-inorder")
		b.ReportMetric(r.MaxVsInOrder, "max-%-vs-inorder")
		b.ReportMetric(r.AvgVsOoO, "avg-%-vs-ooo")
		b.ReportMetric(r.MaxVsOoO, "max-%-vs-ooo")
	}
}

// BenchmarkSquashElimination regenerates the Section 1 motivation:
// consistency squashes disappear under WritersBlock.
func BenchmarkSquashElimination(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := benchEngine.Squashes(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", t)
		b.ReportMetric(maxCol(t, 2), "max-wb-squashes/Minstr")
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (simulated
// cycles per second) on a representative 16-core run.
func BenchmarkSimulatorThroughput(b *testing.B) {
	w, _ := workload.Get("fft")
	var cycles uint64
	for i := 0; i < b.N; i++ {
		_, res, err := workload.Run(w, core.DefaultConfig(core.SLM, core.OoOWB), 1)
		if err != nil {
			b.Fatal(err)
		}
		cycles += uint64(res.Cycles)
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles/op")
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/sec")
}

// maxCol returns the maximum numeric value in column c.
func maxCol(t *stats.Table, c int) float64 {
	m := 0.0
	for i := 0; i < t.NumRows(); i++ {
		var v float64
		if _, err := sscanFloat(t.Row(i)[c], &v); err == nil && v > m {
			m = v
		}
	}
	return m
}

// lastRowCol returns the numeric value at the last row's column c.
func lastRowCol(t *stats.Table, c int) float64 {
	if t.NumRows() == 0 {
		return 0
	}
	var v float64
	sscanFloat(t.Row(t.NumRows() - 1)[c], &v)
	return v
}

func sscanFloat(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}

// BenchmarkAblationEvictionPolicy reproduces the Section 3.8 comparison:
// silent shared-line evictions vs non-silent ones (the paper cites ~9.6%
// lower traffic for silent).
func BenchmarkAblationEvictionPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := benchEngine.AblateEvictionPolicy(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", t)
		b.ReportMetric(lastRowCol(t, 1), "nonsilent-traffic-geomean")
	}
}

// BenchmarkAblationLDTSize sweeps the Lockdown Table size.
func BenchmarkAblationLDTSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := benchEngine.AblateLDTSize(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", t)
		b.ReportMetric(float64(t.NumRows()), "rows")
	}
}

// BenchmarkAblationReservedMSHRs sweeps the SoS-reserved MSHR count.
func BenchmarkAblationReservedMSHRs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := benchEngine.AblateReservedMSHRs(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", t)
		b.ReportMetric(float64(t.NumRows()), "rows")
	}
}

// BenchmarkClassSweep extends Figure 10 across SLM/NHM/HSW.
func BenchmarkClassSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := benchEngine.ClassSweep(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", t)
		b.ReportMetric(float64(t.NumRows()), "rows")
	}
}
