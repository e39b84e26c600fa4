// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus the DESIGN.md ablations. Each benchmark runs its experiment
// end-to-end on the shared small-scale platform (the full-scale numbers are
// produced by cmd/geminisim and recorded in EXPERIMENTS.md) and reports the
// experiment's headline quantity as a custom metric.
package gemini_test

import (
	"sync"
	"testing"

	"gemini/internal/cpu"
	"gemini/internal/harness"
	"gemini/internal/sim"
	"gemini/internal/trace"
)

var (
	benchOnce sync.Once
	benchPlat *harness.Platform
)

// benchPlatform builds the shared small platform once per binary.
func benchPlatform(b *testing.B) *harness.Platform {
	b.Helper()
	benchOnce.Do(func() { benchPlat = harness.NewPlatform(harness.SmallOptions()) })
	return benchPlat
}

// benchSet returns a fresh experiment set (so cached grids do not leak
// between iterations) at a bench-friendly duration scale.
func benchSet(b *testing.B) *harness.ExperimentSet {
	return harness.NewExperimentSet(benchPlatform(b), 0.05)
}

// runExperiment drives one named experiment b.N times. The platform is built
// outside the timed region; each iteration gets a fresh experiment set (via
// benchSet) so cached grids do not leak between iterations.
func runExperiment(b *testing.B, name string) {
	benchPlatform(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := benchSet(b).Run(name); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Comparison(b *testing.B) { runExperiment(b, "table1") }

func BenchmarkTable2Features(b *testing.B) { runExperiment(b, "table2") }

func BenchmarkFig1bWorkload(b *testing.B) {
	p := benchPlatform(b)
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		_, data := p.Fig1b()
		ratio = data.NormalizedMaxRPS
	}
	b.ReportMetric(ratio, "maxRPS/minRPS")
}

func BenchmarkFig1cServiceTimes(b *testing.B) {
	p := benchPlatform(b)
	b.ResetTimer()
	var spread float64
	for i := 0; i < b.N; i++ {
		_, data := p.Fig1c()
		spread = data.SpreadMax
	}
	b.ReportMetric(spread, "service-spread-x")
}

func BenchmarkFig3FreqLatency(b *testing.B) {
	p := benchPlatform(b)
	b.ResetTimer()
	var r2 float64
	for i := 0; i < b.N; i++ {
		_, data := p.Fig3()
		r2 = data.FitR2
	}
	b.ReportMetric(r2, "R2-vs-1/f")
}

func BenchmarkFig6FeatureImportance(b *testing.B) {
	p := benchPlatform(b)
	b.ResetTimer()
	var first, last float64
	for i := 0; i < b.N; i++ {
		_, data := p.Fig6()
		first = data.Points[0].Accuracy
		last = data.Points[len(data.Points)-1].Accuracy
	}
	b.ReportMetric(first*100, "acc-1-feature-%")
	b.ReportMetric(last*100, "acc-all-features-%")
}

func BenchmarkFig7ModelComparison(b *testing.B) {
	p := benchPlatform(b)
	b.ResetTimer()
	var clfErr float64
	for i := 0; i < b.N; i++ {
		_, data := p.Fig7()
		clfErr = data.Evals[2].ErrorRate
	}
	b.ReportMetric(clfErr*100, "classifier-err-%")
}

func BenchmarkFig8ErrorPredictor(b *testing.B) {
	p := benchPlatform(b)
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		_, data := p.Fig8()
		acc = data.Accuracy
	}
	b.ReportMetric(acc*100, "error-NN-acc-%")
}

func BenchmarkFig10PowerVsRPS(b *testing.B) {
	p := benchPlatform(b)
	b.ResetTimer()
	var saving float64
	for i := 0; i < b.N; i++ {
		data := p.RPSSweep([]float64{20, 60, 100}, 10_000)
		cells := data.Cells["Gemini"]
		saving = cells[len(cells)-1].SavingFrac
	}
	b.ReportMetric(saving*100, "gemini-saving-%@100RPS")
}

func BenchmarkFig11TailLatency(b *testing.B) {
	p := benchPlatform(b)
	b.ResetTimer()
	var tail float64
	for i := 0; i < b.N; i++ {
		data := p.RPSSweep([]float64{20, 60, 100}, 10_000)
		cells := data.Cells["Gemini"]
		tail = cells[len(cells)-1].TailMs
	}
	b.ReportMetric(tail, "gemini-p95-ms@100RPS")
}

func BenchmarkFig12Traces(b *testing.B) {
	p := benchPlatform(b)
	b.ResetTimer()
	var saving float64
	for i := 0; i < b.N; i++ {
		data := p.TraceRuns([]string{"wiki", "lucene", "trec"}, []string{"Rubik", "Pegasus", "Gemini"}, 60, 50_000)
		saving = data.Cell("lucene", "Gemini").SavingFrac
	}
	b.ReportMetric(saving*100, "gemini-saving-%-lucene")
}

func BenchmarkFig13LatencyDistribution(b *testing.B) {
	p := benchPlatform(b)
	b.ResetTimer()
	var viol float64
	for i := 0; i < b.N; i++ {
		data := p.TraceRuns([]string{"wiki"}, []string{"Rubik", "Pegasus", "Gemini"}, 60, 50_000)
		viol = data.Cell("wiki", "Gemini").ViolationPct
	}
	b.ReportMetric(viol, "gemini-violation-%")
}

func BenchmarkFig14Breakdown(b *testing.B) {
	p := benchPlatform(b)
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		data := p.TraceRuns([]string{"trec"}, []string{"Gemini", "Gemini-a", "Gemini-95th"}, 60, 50_000)
		full := data.Cell("trec", "Gemini").SavingFrac
		p95 := data.Cell("trec", "Gemini-95th").SavingFrac
		if full > 0 {
			ratio = p95 / full
		}
	}
	b.ReportMetric(ratio, "95th/full-saving")
}

func BenchmarkAblationNoBoost(b *testing.B) {
	p := benchPlatform(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, data := p.AblationBoost(80, 10_000); len(data.Cells) < 3 {
			b.Fatal("missing ablation cells")
		}
	}
}

func BenchmarkAblationPerRequestPlan(b *testing.B) {
	p := benchPlatform(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, data := p.AblationGrouping(80, 10_000); len(data.Cells) < 2 {
			b.Fatal("missing ablation cells")
		}
	}
}

func BenchmarkAblationTdvfs(b *testing.B) {
	p := benchPlatform(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, data := p.AblationTdvfs(80, 10_000); len(data.Cells) != 4 {
			b.Fatal("missing ablation cells")
		}
	}
}

func BenchmarkAblationBudget(b *testing.B) {
	p := benchPlatform(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, data := p.AblationBudget(80, 10_000); len(data.Cells) != 5 {
			b.Fatal("missing ablation cells")
		}
	}
}

func BenchmarkAblationSleep(b *testing.B) {
	p := benchPlatform(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, data := p.AblationSleep(20, 10_000); len(data.Cells) < 3 {
			b.Fatal("missing ablation cells")
		}
	}
}

// sweepRPS is the grid BenchmarkSweep runs.
var sweepRPS = []float64{20, 40, 60, 80, 100}

// BenchmarkSweep runs the Fig. 10/11 grid on GOMAXPROCS workers; -cpu 1,N
// compares the serial grid with the fanned one.
func BenchmarkSweep(b *testing.B) {
	p := benchPlatform(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.RPSSweep(sweepRPS, 10_000)
	}
}

// BenchmarkPlatformWorkload builds what every cluster cell of a sweep builds
// before it can run: the arrival trace and the platform workload, at engine
// RPS 60 over 12 cores for 10 simulated seconds. ns/request is the cost per
// arrival of the two together.
func BenchmarkPlatformWorkload(b *testing.B) {
	p := benchPlatform(b)
	const durationMs = 10_000
	requests := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := trace.GenFixedRPS(60*p.Opt.ShardFraction*12, durationMs, int64(i))
		requests += len(p.Workload(tr.Arrivals, durationMs, int64(i)).ArrivalMs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(requests), "ns/request")
}

// BenchmarkEnginePlatformConfig runs the raw event engine under the real
// platform's sim.Config on the shared bench workload (see
// internal/sim/benchsupport.go — the same scaffolding behind the
// internal/sim benchmarks), so the whole-stack numbers here and the
// engine-only numbers there stay directly comparable.
func BenchmarkEnginePlatformConfig(b *testing.B) {
	p := benchPlatform(b)
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		wl := sim.BenchWorkload(2000, int64(i))
		cfg := p.SimConfig()
		b.StartTimer()
		res := sim.Run(cfg, wl, &sim.FixedPolicy{F: cpu.FDefault})
		events += res.Events
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)/s, "events/sec")
	}
}

// BenchmarkExperimentSetAll exercises the whole registry once per iteration
// at a tiny duration scale — the end-to-end cost of regenerating everything.
func BenchmarkExperimentSetAll(b *testing.B) {
	set := benchSet(b)
	names := set.Names()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := harness.NewExperimentSet(benchPlatform(b), 0.02)
		for _, n := range names {
			if _, err := fresh.Run(n); err != nil {
				b.Fatal(err)
			}
		}
	}
	_ = set
}
