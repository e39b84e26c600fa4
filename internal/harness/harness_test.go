package harness

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"gemini/internal/search"
)

// The small platform is built once for the whole package's tests.
func plat(t testing.TB) *Platform {
	t.Helper()
	return Shared(true)
}

func TestPlatformBuild(t *testing.T) {
	p := plat(t)
	if p.Classifier == nil || p.ErrPred == nil || p.P95 == nil {
		t.Fatal("predictors missing")
	}
	if len(p.Pool) != p.Opt.PoolSize {
		t.Fatalf("pool size = %d", len(p.Pool))
	}
	mean, p95, min, max := p.PoolStats()
	// The budget-relative scaling pins the heaviest query, so the mean
	// floats with the corpus shape (the small corpus has a lighter tail and
	// lands higher).
	if mean < 0.5*p.Opt.TargetMeanMs || mean > 2.0*p.Opt.TargetMeanMs {
		t.Errorf("pool mean %.2f far from target %.2f", mean, p.Opt.TargetMeanMs)
	}
	// Feasibility: the heaviest query fits the budget at max frequency.
	if max > 0.85*p.Opt.BudgetMs {
		t.Errorf("max service %.2f too close to budget %.2f", max, p.Opt.BudgetMs)
	}
	if p95 <= mean || min >= mean {
		t.Errorf("degenerate distribution: mean %.2f p95 %.2f min %.2f", mean, p95, min)
	}
}

// TestNewPlatformIndependentOfGOMAXPROCS builds the small platform on one core
// and on four. The labelling pass spreads its searches over GOMAXPROCS
// workers; nothing downstream of it may tell how many there were.
func TestNewPlatformIndependentOfGOMAXPROCS(t *testing.T) {
	build := func(procs int) *Platform {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return NewPlatform(SmallOptions())
	}
	one, four := build(1), build(4)
	if !reflect.DeepEqual(one.Dataset, four.Dataset) {
		t.Error("Dataset differs")
	}
	if !reflect.DeepEqual(one.Pool, four.Pool) {
		t.Error("Pool differs")
	}
	if !reflect.DeepEqual(one.preds, four.preds) {
		t.Error("prediction table differs")
	}
	saved := func(p *Platform) (clf, ep []byte) {
		var a, b bytes.Buffer
		if err := p.Classifier.Save(&a); err != nil {
			t.Fatal(err)
		}
		if err := p.ErrPred.Save(&b); err != nil {
			t.Fatal(err)
		}
		return a.Bytes(), b.Bytes()
	}
	c1, e1 := saved(one)
	c4, e4 := saved(four)
	if !bytes.Equal(c1, c4) {
		t.Error("classifier weights differ")
	}
	if !bytes.Equal(e1, e4) {
		t.Error("error network weights differ")
	}
}

func TestPolicyRegistry(t *testing.T) {
	p := plat(t)
	for _, name := range append([]string(nil), PolicyNames...) {
		pol, err := p.NewPolicy(name)
		if err != nil || pol == nil {
			t.Errorf("policy %s: %v", name, err)
		}
	}
	for _, name := range []string{"Gemini-95th", "EETL", "PACE-oracle", "Gemini+Sleep"} {
		if _, err := p.NewPolicy(name); err != nil {
			t.Errorf("policy %s: %v", name, err)
		}
	}
	if _, err := p.NewPolicy("bogus"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestTable1(t *testing.T) {
	r := plat(t).Table1()
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if !strings.Contains(r.String(), "Gemini") {
		t.Error("missing Gemini row")
	}
}

func TestTable2(t *testing.T) {
	r, data := plat(t).Table2()
	if len(data.Queries) != 2 {
		t.Fatalf("queries = %v", data.Queries)
	}
	// The phrase query must report query length 2, the term query 1.
	if data.Features[0][search.FeatQueryLength] != 1 ||
		data.Features[1][search.FeatQueryLength] != 2 {
		t.Errorf("query lengths wrong")
	}
	for i, ms := range data.TimesMs {
		if ms <= 0 {
			t.Errorf("query %d time %v", i, ms)
		}
	}
	if len(r.Rows) != 2 {
		t.Errorf("report rows = %d", len(r.Rows))
	}
}

func TestFig1b(t *testing.T) {
	_, data := plat(t).Fig1b()
	if data.NormalizedMaxRPS < 2.5 || data.NormalizedMaxRPS > 8 {
		t.Errorf("normalized RPS range %.2f, paper ≈4x", data.NormalizedMaxRPS)
	}
	if data.PerSecondCV < 0.1 {
		t.Errorf("per-second CV %.2f too flat", data.PerSecondCV)
	}
	if data.InterArrivalP99 <= data.InterArrivalMean {
		t.Errorf("inter-arrival p99 %.2f <= mean %.2f", data.InterArrivalP99, data.InterArrivalMean)
	}
}

func TestFig1c(t *testing.T) {
	_, data := plat(t).Fig1c()
	if data.SpreadMax < 2 {
		t.Errorf("query spread %.1fx too small", data.SpreadMax)
	}
	if len(data.CDFTimes) != 20000 {
		t.Errorf("CDF sample = %d", len(data.CDFTimes))
	}
	for _, name := range []string{"canada", "bobby", "tokyo"} {
		if len(data.QueryTimes[name]) != 4 {
			t.Errorf("%s measured on %d ISNs", name, len(data.QueryTimes[name]))
		}
	}
}

func TestFig3Linearity(t *testing.T) {
	_, data := plat(t).Fig3()
	if len(data.Freqs) != 8 {
		t.Fatalf("frequency points = %d", len(data.Freqs))
	}
	// Latency decreases as frequency increases (series is high-freq first).
	if data.Latencies[0] >= data.Latencies[len(data.Latencies)-1] {
		t.Errorf("latency not decreasing with frequency: %v", data.Latencies)
	}
	if data.FitR2 < 0.999 {
		t.Errorf("R² vs 1/f = %v; S=C/f must be near-exact", data.FitR2)
	}
}

func TestFig7Shape(t *testing.T) {
	_, data := plat(t).Fig7()
	if len(data.Evals) != 4 {
		t.Fatalf("evals = %d", len(data.Evals))
	}
	lin, clf := data.Evals[0], data.Evals[3]
	if clf.ErrorRate >= lin.ErrorRate {
		t.Errorf("NN classifier (%.2f) not better than linear (%.2f)", clf.ErrorRate, lin.ErrorRate)
	}
	if lin.OverheadUs >= clf.OverheadUs {
		t.Errorf("overhead ordering violated")
	}
	if data.AvgServiceMs*1000 < 10*clf.OverheadUs {
		t.Errorf("overhead not small vs service time: %.0f µs vs %.0f µs",
			clf.OverheadUs, data.AvgServiceMs*1000)
	}
}

func TestFig8Bounds(t *testing.T) {
	_, data := plat(t).Fig8()
	if data.Accuracy <= 0.3 || data.Accuracy > 1 {
		t.Errorf("error predictor accuracy %.2f", data.Accuracy)
	}
	if data.LatencyAcc <= 0.3 || data.LatencyAcc > 1 {
		t.Errorf("latency accuracy %.2f", data.LatencyAcc)
	}
}

func TestRPSSweepShape(t *testing.T) {
	p := plat(t)
	data := p.RPSSweepWorkers([]float64{40, 100}, 8_000, 1)
	for _, name := range PolicyNames {
		if len(data.Cells[name]) != 2 {
			t.Fatalf("%s cells = %d", name, len(data.Cells[name]))
		}
	}
	for i := range data.RPS {
		base := data.Cell("Baseline", i)
		gem := data.Cell("Gemini", i)
		peg := data.Cell("Pegasus", i)
		if gem.SocketPowerW >= base.SocketPowerW {
			t.Errorf("RPS %.0f: Gemini %.1f W >= baseline %.1f W", data.RPS[i], gem.SocketPowerW, base.SocketPowerW)
		}
		if gem.SavingFrac <= peg.SavingFrac {
			t.Errorf("RPS %.0f: Gemini saving %.2f <= Pegasus %.2f", data.RPS[i], gem.SavingFrac, peg.SavingFrac)
		}
	}
	// Reports render.
	if s := p.Fig10(data).String(); !strings.Contains(s, "Gemini") {
		t.Error("Fig10 report broken")
	}
	if s := p.Fig11(data).String(); !strings.Contains(s, "RPS") {
		t.Error("Fig11 report broken")
	}
}

func TestTraceRunsShape(t *testing.T) {
	p := plat(t)
	data := p.TraceRunsWorkers([]string{"wiki"}, []string{"Rubik", "Pegasus", "Gemini", "Gemini-a", "Gemini-95th"}, 60, 60_000, 1)
	base := data.Cell("wiki", "Baseline")
	gem := data.Cell("wiki", "Gemini")
	if base == nil || gem == nil {
		t.Fatal("cells missing")
	}
	if gem.SavingFrac <= 0.15 {
		t.Errorf("Gemini trace saving %.2f too small", gem.SavingFrac)
	}
	if len(base.PowerSeriesW) == 0 {
		t.Error("power series missing")
	}
	// Gemini reshapes latency toward the budget: median far above baseline's.
	if len(gem.Latencies) == 0 || len(base.Latencies) == 0 {
		t.Fatal("latencies missing")
	}
	// Reports render without panicking even with a single trace.
	one := p.Fig13(data)
	if !strings.Contains(one.String(), "Gemini") {
		t.Error("Fig13 report broken")
	}
	if s := p.Fig14(data).String(); !strings.Contains(s, "95th") {
		t.Error("Fig14 report broken")
	}
	if s := p.Fig12(data).String(); !strings.Contains(s, "wiki") {
		t.Error("Fig12 report broken")
	}
}

func TestAblations(t *testing.T) {
	p := plat(t)
	if _, data := p.AblationBoostWorkers(80, 8_000, 1); len(data.Cells) != 4 {
		t.Errorf("boost ablation cells = %d", len(data.Cells))
	}
	if _, data := p.AblationGroupingWorkers(80, 8_000, 1); len(data.Cells) != 3 {
		t.Errorf("grouping ablation cells = %d", len(data.Cells))
	}
	if _, data := p.AblationTdvfsWorkers(80, 8_000, 1); len(data.Cells) != 4 {
		t.Errorf("tdvfs ablation cells = %d", len(data.Cells))
	}
	if _, data := p.AblationBudgetWorkers(80, 8_000, 1); len(data.Cells) != 5 {
		t.Errorf("budget ablation cells = %d", len(data.Cells))
	}
	_, sleep := p.AblationSleepWorkers(20, 8_000, 1)
	if len(sleep.Cells) != 3 {
		t.Fatalf("sleep ablation cells = %d", len(sleep.Cells))
	}
	// Sleep must save power vs plain Gemini at light load.
	if sleep.Cells[2].SocketPowerW >= sleep.Cells[1].SocketPowerW {
		t.Errorf("sleep %v W >= plain %v W", sleep.Cells[2].SocketPowerW, sleep.Cells[1].SocketPowerW)
	}
}

func TestExperimentSet(t *testing.T) {
	set := NewExperimentSet(plat(t), 0.02)
	names := set.Names()
	if len(names) < 18 {
		t.Fatalf("experiments = %d", len(names))
	}
	if _, err := set.Run("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
	// Spot-run the cheap ones end to end.
	for _, n := range []string{"table1", "table2", "fig3", "fig10", "fig13"} {
		rep, err := set.Run(n)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if rep.String() == "" {
			t.Errorf("%s: empty report", n)
		}
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{Title: "T", Header: []string{"a", "bb"}}
	r.AddRow("1", "2")
	r.AddRow("333", "4")
	r.Note("note %d", 7)
	s := r.String()
	for _, want := range []string{"== T ==", "note 7", "333"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
	empty := &Report{Title: "E"}
	if !strings.Contains(empty.String(), "== E ==") {
		t.Error("empty report broken")
	}
}

func TestWorkloadSeedsDiffer(t *testing.T) {
	p := plat(t)
	arr := []float64{10, 20, 30}
	a := p.Workload(arr, 100, 1)
	b := p.Workload(arr, 100, 2)
	same := true
	for i := range a.Requests {
		if a.Requests[i].WorkTotal != b.Requests[i].WorkTotal {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}
}

func TestReportHelpers(t *testing.T) {
	if f1(1.25) != "1.2" && f1(1.25) != "1.3" {
		t.Errorf("f1 = %q", f1(1.25))
	}
	if f2(1.256) != "1.26" {
		t.Errorf("f2 = %q", f2(1.256))
	}
	if pct(0.4251) != "42.5%" {
		t.Errorf("pct = %q", pct(0.4251))
	}
}

func TestFig2Timeline(t *testing.T) {
	r := plat(t).Fig2(2)
	s := r.String()
	if !strings.Contains(s, "busy") || !strings.Contains(s, "#") {
		t.Errorf("timeline missing bars:\n%s", s)
	}
	if len(r.Rows) < 3 {
		t.Errorf("timeline rows = %d", len(r.Rows))
	}
}

func TestExtensionAggregate(t *testing.T) {
	r, data := plat(t).ExtensionAggregateWorkers(3, 40, 10_000, 1)
	if len(data.Cells) != 2 {
		t.Fatalf("cells = %d", len(data.Cells))
	}
	base, gem := data.Cells[0], data.Cells[1]
	// Gemini must use less per-core power; the aggregate tail exceeds any
	// single ISN's for both.
	if gem.SocketPowerW >= base.SocketPowerW {
		t.Errorf("Gemini per-core power %v >= baseline %v", gem.SocketPowerW, base.SocketPowerW)
	}
	if !strings.Contains(r.String(), "Aggregate") {
		t.Error("report broken")
	}
}

func TestExtensionCache(t *testing.T) {
	r, data := plat(t).ExtensionCacheWorkers(60, 10_000, 128, 1)
	if len(data.Cells) != 4 {
		t.Fatalf("cells = %d", len(data.Cells))
	}
	// Caching must reduce power for both baseline and Gemini.
	if data.Cells[1].SocketPowerW >= data.Cells[0].SocketPowerW {
		t.Errorf("baseline+cache %v >= baseline %v", data.Cells[1].SocketPowerW, data.Cells[0].SocketPowerW)
	}
	if data.Cells[3].SocketPowerW >= data.Cells[2].SocketPowerW {
		t.Errorf("gemini+cache %v >= gemini %v", data.Cells[3].SocketPowerW, data.Cells[2].SocketPowerW)
	}
	if !strings.Contains(r.String(), "hit rate") {
		t.Error("hit rate note missing")
	}
}

func TestExtensionGovernors(t *testing.T) {
	_, data := plat(t).ExtensionGovernorsWorkers(60, 10_000, 1)
	if len(data.Cells) != 6 {
		t.Fatalf("cells = %d", len(data.Cells))
	}
	// Gemini must have the best tail among the managed policies.
	gem := data.Cells[len(data.Cells)-1]
	for _, c := range data.Cells[1 : len(data.Cells)-1] {
		if gem.TailMs >= c.TailMs+20 {
			t.Errorf("Gemini tail %v far above %s's %v", gem.TailMs, c.Variant, c.TailMs)
		}
	}
}
