package main

import (
	"math"
	"runtime"
	"time"

	"gemini/internal/core"
	"gemini/internal/corpus"
	"gemini/internal/search"
)

const (
	queryPool = 5000 // distinct queries query_path and live_search cycle over
	// keepEvery: one pool entry in keepEvery has its last output kept and
	// checked after the timed region.
	keepEvery = 20
)

// queries is the pool query_path and live_search cycle over, drawn from the
// platform's corpus with the run's seed.
func (b *bench) queries() []corpus.Query {
	return corpus.NewQueryGen(b.p.Corpus, b.seed).Batch(queryPool)
}

// decision is what the per-query path produced for one query.
type decision struct {
	results      []search.Result
	svcMs, errMs float64
	plan         core.Plan
}

// runQuery is query_path: the per-query decision path, in process, one
// goroutine, closed loop — parse, top-K search, feature extraction, both NN
// predictions, and the §III-A plan.
func (b *bench) runQuery(rec *recorder) *result {
	p := b.p
	res := &result{unit: "queries"}
	pool := b.queries()
	params := core.DefaultParams()
	budgetMs := p.Opt.BudgetMs
	kept := make([]decision, len(pool))

	// run sends queries first..first+n-1 down the path and returns each one's
	// host latency in ms.
	run := func(first, n int) []float64 {
		lat := make([]float64, n)
		for i := range lat {
			op := first + i
			idx := op % len(pool)
			t0 := time.Now()
			root := rec.start("query", op, -1)
			sp := rec.start("corpus.parse_query", op, root)
			q, ok := corpus.ParseQuery(p.Corpus, pool[idx].Text)
			rec.end(sp)
			sp = rec.start("search.search", op, root)
			ex := p.Engine.Search(q)
			rec.end(sp)
			sp = rec.start("search.features", op, root)
			fv := p.Extractor.Features(q)
			rec.end(sp)
			sp = rec.start("predictor.service", op, root)
			svcMs := p.Classifier.PredictMs(fv)
			rec.end(sp)
			sp = rec.start("predictor.error", op, root)
			errMs := p.ErrPred.PredictErrMs(fv)
			rec.end(sp)
			sp = rec.start("core.plan_single", op, root)
			plan := params.PlanSingle(0, budgetMs, svcMs, errMs)
			rec.end(sp)
			rec.end(root)
			lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
			if !ok {
				res.fail("query %d: %q did not parse", op, pool[idx].Text)
			}
			if idx%keepEvery == 0 {
				kept[idx] = decision{ex.Results, svcMs, errMs, plan}
			}
		}
		return lat
	}

	n := b.size.queries
	run(0, max(1, n/10))
	res.segs = measure(segments, func(i int) (float64, []float64) {
		return float64(n), run(i*n, n)
	})
	res.attempted = segments * n

	// Output checks on the kept decisions, against the exhaustive scorer.
	ref := search.NewEngineWith(p.Index, p.Engine.K(), search.AlgExhaustive)
	ladder := params.Ladder
	for idx := 0; idx < len(pool) && idx < segments*n; idx += keepEvery {
		d := kept[idx]
		want := ref.Search(pool[idx]).Results
		if len(d.results) != len(want) {
			res.fail("query %q: %d results, exhaustive scorer has %d", pool[idx].Text, len(d.results), len(want))
			continue
		}
		for j := range want {
			if math.Abs(float64(d.results[j].Score-want[j].Score)) > 1e-4 {
				res.fail("query %q: rank %d scores %v, exhaustive scorer %v", pool[idx].Text, j, d.results[j].Score, want[j].Score)
				break
			}
			if j > 0 && d.results[j].Score > d.results[j-1].Score {
				res.fail("query %q: rank %d outscores rank %d", pool[idx].Text, j, j-1)
				break
			}
		}
		if !(d.svcMs >= 0) || math.IsInf(d.svcMs, 0) || math.IsNaN(d.errMs) || math.IsInf(d.errMs, 0) {
			res.fail("query %q: predictions S*=%v E*=%v", pool[idx].Text, d.svcMs, d.errMs)
		}
		if !ladder.Contains(d.plan.Initial) || !ladder.Contains(d.plan.Boost) {
			res.fail("query %q: plan %v -> %v GHz is off the ladder", pool[idx].Text, d.plan.Initial, d.plan.Boost)
		}
	}
	return res
}

// queryLayers fills the per-layer rows of a traced query_path run: the span
// medians, then a search-only pass over the pool for the work counters and a
// stand-alone probe of the network's forward pass.
func (b *bench) queryLayers(rec *recorder) {
	l, p := b.layer, b.p
	l["corpus.parse_query_ns"] = percentile(rec.durationsNs("corpus.parse_query"), 50)
	searchNs := rec.durationsNs("search.search")
	l["search.search_us_p50"] = percentile(searchNs, 50) / 1e3
	l["search.search_us_p99"] = percentile(searchNs, 99) / 1e3
	l["search.features_ns"] = percentile(rec.durationsNs("search.features"), 50)
	l["predictor.service_ns"] = percentile(rec.durationsNs("predictor.service"), 50)
	l["predictor.error_ns"] = percentile(rec.durationsNs("predictor.error"), 50)
	l["core.plan_single_ns"] = percentile(rec.durationsNs("core.plan_single"), 50)

	pool := b.queries()
	var visited, scored, entered int
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, q := range pool {
		st := p.Engine.Search(q).Stats
		visited += st.PostingsVisited
		scored += st.DocsScored
		entered += st.DocsEverInTopK
	}
	runtime.ReadMemStats(&m1)
	n := float64(len(pool))
	l["search.allocs_per_search"] = float64(m1.Mallocs-m0.Mallocs) / n
	l["search.postings_visited_per_query"] = float64(visited) / n
	l["search.docs_scored_per_query"] = float64(scored) / n
	l["search.topk_entry_ratio"] = float64(entered) / float64(max(scored, 1))

	net := p.Classifier.Network()
	arena, x := net.NewArena(), make([]float64, net.InDim())
	l["nn.infer_ns"] = timeCalls(20000, func(int) { net.Infer(x, arena) })
}
