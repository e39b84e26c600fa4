package harness

import (
	"fmt"
	"math"

	"gemini/internal/corpus"
	"gemini/internal/cpu"
	"gemini/internal/index"
	"gemini/internal/policy"
	"gemini/internal/search"
	"gemini/internal/sim"
	"gemini/internal/stats"
	"gemini/internal/trace"
)

// Table1 renders the qualitative power-management comparison of paper
// Table I, extended with the two additional baselines this repo implements.
func (p *Platform) Table1() *Report {
	r := &Report{
		Title:  "Table I — power management comparison",
		Header: []string{"Scheme", "Uncertainty", "Unknown demand", "DVFS control", "Critical-request reconfig"},
	}
	r.AddRow("Pegasus", "long-term (per epoch)", "deadline violation + latency history", "centralized feedback controller", "no concept")
	r.AddRow("Rubik", "short & long (per request)", "tail of service-time distribution", "statistical model in software runtime", "yes")
	r.AddRow("PACE", "short & long (per request)", "work distribution from recent tasks", "idealized step-wise DVFS (LP)", "latter request may violate")
	r.AddRow("EETL", "long-term (per epoch)", "run until time threshold expires", "PID controller", "latter request may violate")
	r.AddRow("Gemini", "short & long (per request)", "NN latency + error predictors", "heuristic one/two-step DVFS in user space", "yes")
	return r
}

// Table2Data carries the Table II feature rows for assertions.
type Table2Data struct {
	Queries  []string
	Features []search.FeatureVector
	TimesMs  []float64
}

// Table2 reproduces paper Table II: the full feature vector for an example
// term query and an example phrase query.
func (p *Platform) Table2() (*Report, *Table2Data) {
	data := &Table2Data{}
	r := &Report{
		Title:  "Table II — features for service time prediction",
		Header: append([]string{"Query", "Time(ms)"}, search.FeatureNames[:]...),
	}
	for _, text := range []string{"toyota", "united kingdom"} {
		q, ok := corpus.ParseQuery(p.Corpus, text)
		if !ok {
			continue
		}
		ex := p.Engine.Search(q)
		ms := cpu.TimeFor(p.Cost.WorkFor(ex.Stats), cpu.FDefault)
		fv := p.Extractor.Features(q)
		cells := []string{text, f2(ms)}
		for _, v := range fv {
			cells = append(cells, f2(v))
		}
		r.AddRow(cells...)
		data.Queries = append(data.Queries, text)
		data.Features = append(data.Features, fv)
		data.TimesMs = append(data.TimesMs, ms)
	}
	return r, data
}

// Fig1bData summarizes the workload-variation statistics of Fig. 1b.
type Fig1bData struct {
	NormalizedMaxRPS float64 // hourly max/min ratio (paper: ≈4x)
	PerSecondCV      float64
	InterArrivalP99  float64
	InterArrivalMean float64
}

// Fig1b reproduces the Fig. 1b workload characterization: long-term diurnal
// RPS variation, its CDF, per-second variability, and inter-arrival spread.
func (p *Platform) Fig1b() (*Report, *Fig1bData) {
	long := trace.GenWikipediaLong(6, 150, p.Opt.Seed+10)
	hourly := long.RPSSeries(3_600_000, 150*3_600_000)
	mn, _ := stats.Min(hourly)
	mx, _ := stats.Max(hourly)

	// Normalized-to-min hourly series CDF (paper's top-right panel).
	norm := make([]float64, len(hourly))
	for i, v := range hourly {
		norm[i] = v / mn
	}
	cdf, _ := stats.NewCDF(norm)

	short := trace.GenEvalTrace("wiki", 60, 300_000, p.Opt.Seed+11)
	sec := short.RPSSeries(1000, 300_000)
	secMean, _ := stats.Mean(sec)
	secVar, _ := stats.Variance(sec)
	gaps := short.InterArrivalsMs()
	gapMean, _ := stats.Mean(gaps)
	gapP99, _ := stats.Percentile(gaps, 99)

	data := &Fig1bData{
		NormalizedMaxRPS: mx / mn,
		PerSecondCV:      math.Sqrt(secVar) / secMean,
		InterArrivalP99:  gapP99,
		InterArrivalMean: gapMean,
	}
	r := &Report{Title: "Fig. 1b — search workload arrival variation"}
	r.Note("150h Wikipedia trace, hourly RPS: min %.2f, max %.2f (max/min %.2fx; paper ≈4x)", mn, mx, data.NormalizedMaxRPS)
	r.Header = []string{"Normalized RPS x", "CDF"}
	for _, x := range []float64{1, 1.5, 2, 2.5, 3, 3.5, 4} {
		r.AddRow(f1(x), f2(cdf.At(x)))
	}
	r.Note("per-second RPS coefficient of variation: %.2f", data.PerSecondCV)
	r.Note("inter-arrival: mean %.1f ms, p99 %.1f ms", gapMean, gapP99)
	return r, data
}

// Fig1cData carries the per-query service time variation results.
type Fig1cData struct {
	QueryTimes map[string][]float64 // query -> per-ISN service times (ms)
	SpreadMax  float64              // max over ISNs of (slowest query / fastest)
	CDFTimes   []float64            // 20K-request service time sample
}

// Fig1c reproduces Fig. 1c: the service times of the example queries Canada,
// Bobby and Tokyo across ISN shards, and the service-time CDF over 20K
// requests. Shards are separate corpus seeds: each ISN serves a different
// document partition, so the same query costs differently per ISN.
func (p *Platform) Fig1c() (*Report, *Fig1cData) {
	const isns = 4
	names := []string{"canada", "bobby", "tokyo"}
	data := &Fig1cData{QueryTimes: map[string][]float64{}}

	r := &Report{Title: "Fig. 1c — per-query service time variation"}
	r.Header = []string{"ISN", "canada(ms)", "bobby(ms)", "tokyo(ms)"}
	for shard := 0; shard < isns; shard++ {
		// Shards differ in both content (seed) and size (document count):
		// real collections partition unevenly, which is why the same query
		// costs differently per ISN in the paper's Fig. 1c.
		spec := corpus.SmallSpec()
		spec.Seed = p.Opt.Seed + int64(100+shard)
		spec.NumDocs = spec.NumDocs * (2 + 3*shard) / 5 // 0.4x .. 2.2x
		c := corpus.Generate(spec)
		eng := search.NewEngine(index.Build(c), search.DefaultK)
		cost := search.DefaultCostModel()
		cost.Scale = p.Cost.Scale // same calibration across shards
		row := []string{fmt.Sprintf("ISN-%d", shard+1)}
		for _, name := range names {
			q, ok := corpus.ParseQuery(c, name)
			ms := 0.0
			if ok {
				ms = cpu.TimeFor(cost.WorkFor(eng.Search(q).Stats), cpu.FDefault)
			}
			data.QueryTimes[name] = append(data.QueryTimes[name], ms)
			row = append(row, f2(ms))
		}
		r.AddRow(row...)
	}

	// Spread between heaviest and lightest query per ISN.
	for i := 0; i < isns; i++ {
		mn, mx := 1e18, 0.0
		for _, name := range names {
			v := data.QueryTimes[name][i]
			if v <= 0 {
				continue
			}
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		if mn < 1e18 && mx/mn > data.SpreadMax {
			data.SpreadMax = mx / mn
		}
	}

	// 20K-request service-time CDF on the main shard.
	sample := p.SampleQueries(20000, p.Opt.Seed+12)
	times := make([]float64, len(sample))
	for i, pq := range sample {
		times[i] = cpu.TimeFor(pq.BaseWork, cpu.FDefault)
	}
	data.CDFTimes = times
	cdf, _ := stats.NewCDF(times)
	r.Note("service-time spread across example queries: up to %.1fx (paper: 14x)", data.SpreadMax)
	r.Note("20K-request service-time CDF (ms -> P):")
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		r.Note("  p%.0f = %.2f ms", q*100, cdf.Quantile(q))
	}
	return r, data
}

// Fig3Data carries the latency-vs-frequency validation.
type Fig3Data struct {
	Freqs     []cpu.Freq
	Latencies []float64
	FitR2     float64 // linearity of latency vs 1/f
}

// Fig3 reproduces Fig. 3: a single heavy query's latency at every ladder
// frequency, with the linear fit against 1/f confirming S = C/f.
func (p *Platform) Fig3() (*Report, *Fig3Data) {
	// Pick the heaviest pool query (the paper used a long request: 40 ms at
	// 2.7 GHz scaled to our platform).
	heavy := &p.Pool[0]
	for i := range p.Pool {
		if p.Pool[i].BaseWork > heavy.BaseWork {
			heavy = &p.Pool[i]
		}
	}
	data := &Fig3Data{}
	var invF []float64
	r := &Report{Title: "Fig. 3 — request latency vs CPU frequency"}
	r.Note("query %q, work %.1f Mcycles", heavy.Query.Text, float64(heavy.BaseWork))
	r.Header = []string{"Freq (GHz)", "Latency (ms)"}
	levels := cpu.DefaultLadder().Levels()
	for i := len(levels) - 1; i >= 0; i-- {
		f := levels[i]
		wl := &sim.Workload{BudgetMs: 10_000, DurationMs: 10_000}
		wl.Requests = []*sim.Request{{
			Entry:    heavy,
			BaseWork: heavy.BaseWork, WorkTotal: heavy.BaseWork,
			ArrivalMs: 0, DeadlineMs: 10_000,
		}}
		res := sim.Run(sim.DefaultConfig(), wl, policy.FixedFreq{F: f})
		lat := res.Latencies[0]
		data.Freqs = append(data.Freqs, f)
		data.Latencies = append(data.Latencies, lat)
		invF = append(invF, 1/float64(f))
		r.AddRow(f1(float64(f)), f2(lat))
	}
	fit, err := stats.FitLinear(invF, data.Latencies)
	if err == nil {
		data.FitR2 = fit.R2
		r.Note("linear fit latency = %.2f·(1/f) + %.2f, R² = %.5f (paper: on-line trend)", fit.Slope, fit.Intercept, fit.R2)
	}
	return r, data
}
