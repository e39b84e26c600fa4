// Package harness assembles the full reproduction platform (corpus → index
// → engine → predictors → simulator) and implements one experiment runner
// per table and figure of the paper's evaluation. The cmd/ tools, the
// examples, and the root benchmark suite all drive these runners.
package harness

import (
	"fmt"
	"math/rand"
	"sync"

	"gemini/internal/corpus"
	"gemini/internal/cpu"
	"gemini/internal/index"
	"gemini/internal/par"
	"gemini/internal/policy"
	"gemini/internal/predictor"
	"gemini/internal/search"
	"gemini/internal/sim"
	"gemini/internal/stats"
)

// Options configures platform construction.
type Options struct {
	// Small selects the fast test-scale platform (small corpus, tiny NNs).
	Small bool
	// Seed drives all deterministic generation.
	Seed int64
	// ShardFraction is the fraction of engine-level requests that reach one
	// ISN. The paper's traces drive selective-search deployments (refs
	// [3,4,8]: dynamic shard cutoff) where each query is served by a subset
	// of shards; with 10 ms mean service a full 100 RPS stream would
	// saturate a single-worker ISN, so the sweep's x-axis stays engine RPS
	// while each ISN sees ShardFraction of it.
	ShardFraction float64
	// BudgetMs is the ISN tail latency budget (40 ms in the paper).
	BudgetMs float64
	// PoolSize is the number of distinct queries in the workload pool.
	PoolSize int
	// TrainQueries is the number of labeled samples for predictor training.
	TrainQueries int
	// NNConfig configures predictor training.
	NNConfig predictor.Config
}

// DefaultOptions is the full-scale configuration used by cmd/ and benches.
func DefaultOptions() Options {
	return Options{
		Seed:          1,
		ShardFraction: 0.4,
		BudgetMs:      40,
		PoolSize:      1500,
		TrainQueries:  9000,
		NNConfig:      predictor.DefaultConfig(),
	}
}

// SmallOptions is the fast configuration used by unit tests.
func SmallOptions() Options {
	return Options{
		Small:         true,
		Seed:          1,
		ShardFraction: 0.4,
		BudgetMs:      40,
		PoolSize:      300,
		TrainQueries:  2000,
		NNConfig:      predictor.TestConfig(),
	}
}

// Platform is the assembled reproduction stack shared by all experiments.
type Platform struct {
	Opt       Options
	Corpus    *corpus.Corpus
	Index     *index.Index
	Engine    *search.Engine
	Extractor *search.Extractor
	Cost      *search.CostModel
	Jitter    *search.Jitter
	Builder   *predictor.Builder
	Dataset   *predictor.Dataset

	Classifier *predictor.NNClassifier
	ErrPred    *predictor.NNError
	P95        *predictor.Percentile95

	Pool         []sim.PreparedQuery
	ServiceTimes []float64 // pool base service times at FDefault, ms
	Power        *cpu.PowerModel

	// cachedPool is Pool and, in the slot after its last entry, the one
	// entry every result-cache hit references (applyCache): no features, the
	// engine's lookup cost. Pool is its prefix.
	cachedPool []sim.PreparedQuery
	// rubikSamples is the training set's measured service times, sorted
	// once here and shared read-only by every Rubik instance.
	rubikSamples []float64
	// preds is the (S*, E*) output of Classifier and ErrPred for every entry
	// of cachedPool, the cache hit in the slot after the pool's, computed
	// once here and attached to every workload: a request is an arrival of a
	// pool query, and a prediction is a property of the query.
	preds *sim.Predictions
}

// NewPlatform builds the stack: generate the corpus, index it, scale the
// cost model by the budget rule, label the training set, train both NNs, and
// prepare the query pool. Construction is deterministic for a given Options
// value.
func NewPlatform(opt Options) *Platform {
	spec := corpus.DefaultSpec()
	if opt.Small {
		spec = corpus.SmallSpec()
	}
	spec.Seed = opt.Seed
	c := corpus.Generate(spec)
	ix := index.Build(c)
	eng := search.NewEngine(ix, search.DefaultK)
	cost := search.DefaultCostModel()
	gen := corpus.NewQueryGen(c, opt.Seed+1)
	// The stream's first 500 queries go unused: drawing them keeps the raw
	// batch below on the queries every pinned output was built from.
	gen.Batch(500)

	jit := search.DefaultJitter()
	// The spike class must exclude whole-corpus scans regardless of corpus
	// scale, or heavy queries become infeasible within the budget.
	jit.SpikeMaxLen = 0.15 * float64(spec.NumDocs)
	p := &Platform{
		Opt:       opt,
		Corpus:    c,
		Index:     ix,
		Engine:    eng,
		Extractor: search.NewExtractor(eng),
		Cost:      cost,
		Jitter:    jit,
		Power:     cpu.DefaultPowerModel(),
	}
	p.Builder = &predictor.Builder{
		Engine: eng, Extractor: p.Extractor, Cost: cost, Jitter: p.Jitter,
	}

	// The paper's measured workload spans about 14x between the lightest and
	// heaviest queries with every request feasible inside the 40 ms budget
	// (Fig. 1c; Fig. 11's baseline tails). The Zipf-synthetic corpus also
	// produces a pathological ultra-heavy tail that the real Wikipedia mix
	// does not exhibit, so the workload population keeps only queries below
	// the raw draw's 98th percentile, and the scale rule below prices them:
	// the heaviest query kept runs at 82% of the budget at f_max. Nothing
	// else sets the scale, so the mean is an outcome (full platform: mean
	// 9.09 ms, p50 3.08, p90 29.82, p95 31.99, min 0.22, max 32.80; small
	// platform: mean 15.06 ms). The same population feeds predictor training
	// and the workload pool, as on the paper's testbed.
	//
	// This is the only pass that runs the queries: the labelling and the pool
	// below price the counters it keeps, under the rescaled cost model. The
	// engine only reads the index, and each query writes its own slot, so it
	// runs on every core with nothing to reorder.
	raw := gen.Batch(opt.PoolSize + opt.TrainQueries + 6000)
	execs := make([]search.ExecStats, len(raw))
	times := make([]float64, len(raw))
	par.Run(par.DefaultWorkers(), len(raw), func(i int) {
		execs[i] = eng.Search(raw[i]).Stats
		times[i] = cpu.TimeFor(cost.WorkFor(execs[i]), cpu.FDefault)
	})
	// Drop the synthetic ultra-heavy outliers (top 2%), then scale the cost
	// model so that the heaviest remaining query sits at 82% of the budget:
	// feasible at the maximum frequency even with worst-case jitter, like
	// every query of the paper's measured workload.
	threshold, err := stats.Percentile(times, 98)
	if err != nil {
		panic(err)
	}
	feasible := make([]corpus.Query, 0, len(raw))
	feasibleExecs := execs[:0] // filtered in place, parallel to feasible
	maxKept := 0.0
	for i, q := range raw {
		if times[i] <= threshold {
			feasible = append(feasible, q)
			feasibleExecs = append(feasibleExecs, execs[i])
			if times[i] > maxKept {
				maxKept = times[i]
			}
		}
	}
	if len(feasible) < opt.PoolSize+opt.TrainQueries {
		panic("harness: feasibility filter removed too many queries")
	}
	cost.Scale *= 0.82 * opt.BudgetMs / maxKept

	nTrain, nAll := opt.TrainQueries, opt.TrainQueries+opt.PoolSize

	p.Dataset = p.Builder.BuildFrom(feasible[:nTrain], feasibleExecs[:nTrain], 0.2, opt.Seed+2)
	p.Classifier = predictor.TrainClassifier(p.Dataset.Train, nil, opt.NNConfig)
	p.ErrPred = predictor.TrainError(p.Dataset.Train, p.Classifier, opt.NNConfig)
	p.P95 = predictor.NewPercentile(p.Dataset.Train)
	p.rubikSamples = make([]float64, len(p.Dataset.Train))
	for i, s := range p.Dataset.Train {
		p.rubikSamples[i] = s.MeasuredMs
	}
	stats.SortAscending(p.rubikSamples)

	// A hit is trivially predictable: zeroed features make the NN place it in
	// the smallest service-time bucket.
	hit := sim.PreparedQuery{BaseWork: cost.WorkFor(search.CacheLookupStats)}
	p.cachedPool = append(sim.PrepareQueries(p.Extractor, cost, jit, feasible[nTrain:nAll], feasibleExecs[nTrain:nAll]), hit)
	n := len(p.cachedPool) - 1
	p.Pool = p.cachedPool[:n:n]
	p.ServiceTimes = make([]float64, len(p.Pool))
	for i, pq := range p.Pool {
		p.ServiceTimes[i] = cpu.TimeFor(pq.BaseWork, cpu.FDefault)
	}

	p.preds = &sim.Predictions{ServiceMs: make([]float64, n+1), ErrMs: make([]float64, n+1)}
	for i := range p.cachedPool {
		pq := &p.cachedPool[i]
		p.preds.ServiceMs[i] = p.Classifier.PredictMs(pq.Features)
		p.preds.ErrMs[i] = p.ErrPred.PredictErrMs(pq.Features)
	}
	return p
}

var (
	sharedMu   sync.Mutex
	sharedFull *Platform
	sharedTiny *Platform
)

// Shared returns a lazily built process-wide platform (full or small scale),
// so benchmarks and experiments share one trained predictor suite.
func Shared(small bool) *Platform {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if small {
		if sharedTiny == nil {
			sharedTiny = NewPlatform(SmallOptions())
		}
		return sharedTiny
	}
	if sharedFull == nil {
		sharedFull = NewPlatform(DefaultOptions())
	}
	return sharedFull
}

// SimConfig returns the simulator configuration used by all power
// experiments: prediction overhead charged per arrival, latencies recorded.
func (p *Platform) SimConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.PredictOverheadMs = 0.079 // NN classifier inference, §IV-B
	return cfg
}

// Workload draws a workload over arrivals from the pool, with the platform's
// prediction table attached. Per arrival it costs two draws and one 24-byte
// store: whatever depends only on the query was computed per pool entry in
// NewPlatform. The workload shares arrivals, which must stay unmodified.
func (p *Platform) Workload(arrivals []float64, durationMs float64, seed int64) *sim.Workload {
	return p.WorkloadBudget(arrivals, durationMs, seed, p.Opt.BudgetMs)
}

// WorkloadBudget is Workload with an explicit latency budget, so parallel
// experiment cells can vary the budget without mutating the shared Options.
func (p *Platform) WorkloadBudget(arrivals []float64, durationMs float64, seed int64, budgetMs float64) *sim.Workload {
	wl := sim.BuildWorkload(p.Pool, arrivals, p.Jitter, budgetMs, durationMs, seed)
	wl.Preds = p.preds
	return wl
}

// PolicyNames lists the five schemes of the Fig. 10/11 sweep in paper order.
var PolicyNames = []string{"Baseline", "Rubik", "Pegasus", "Gemini-a", "Gemini"}

// AllPolicyNames is every name NewPolicy accepts: the Fig. 10/11 five, then
// the ablations, extensions and governors. A command checks a name against
// it before it pays for a platform.
var AllPolicyNames = append(append([]string(nil), PolicyNames...),
	"Gemini-95th", "EETL", "PACE-oracle", "Gemini+Sleep", "ondemand", "conservative")

// markCached lets a Gemini policy consume the platform's prediction table for
// whichever of its predictors are the platform's shared NN instances — the
// table was computed by exactly those, so cached and live values coincide
// (TestPoolPredictionsMatchLiveNN, TestCachedPredictionsMatchLive).
// Other estimators (moving average, percentile, zero-error) keep the live
// path: they are either stateful or too cheap to be worth caching.
func (p *Platform) markCached(g *policy.Gemini) *policy.Gemini {
	if g.Service == predictor.ServicePredictor(p.Classifier) {
		g.UseCachedService = true
	}
	if g.ErrPred == predictor.ErrorPredictor(p.ErrPred) {
		g.UseCachedErr = true
	}
	return g
}

// NewPolicy constructs a fresh policy instance by name (policies are
// stateful: one instance per run).
func (p *Platform) NewPolicy(name string) (sim.Policy, error) {
	switch name {
	case "Baseline":
		return policy.Baseline{}, nil
	case "Pegasus":
		return policy.NewPegasus(), nil
	case "Rubik":
		return policy.NewRubikFromSorted(p.rubikSamples), nil
	case "Gemini":
		return p.markCached(policy.NewGemini(p.Classifier, p.ErrPred)), nil
	case "Gemini-a":
		return p.markCached(policy.NewGeminiAlpha(p.Classifier)), nil
	case "Gemini-95th":
		return policy.NewGemini95(p.P95), nil
	case "EETL":
		return policy.NewEETL(), nil
	case "PACE-oracle":
		return policy.NewPACEOracle(), nil
	case "Gemini+Sleep":
		return policy.NewSleepWrapper(p.markCached(policy.NewGemini(p.Classifier, p.ErrPred))), nil
	case "ondemand":
		return policy.NewOnDemand(), nil
	case "conservative":
		return policy.NewConservative(), nil
	default:
		return nil, fmt.Errorf("harness: unknown policy %q", name)
	}
}

// MustPolicy is NewPolicy for callers with vetted names.
func (p *Platform) MustPolicy(name string) sim.Policy {
	pol, err := p.NewPolicy(name)
	if err != nil {
		panic(err)
	}
	return pol
}

// PoolSummary is the pool's base service-time distribution at FDefault, ms.
type PoolSummary struct {
	Mean, P50, P90, P95, Min, Max float64
}

// PoolStats summarizes the pool's base service times: what NewPlatform's
// scale rule leaves, whose Max is 0.82 × BudgetMs.
func (p *Platform) PoolStats() PoolSummary {
	sorted := append([]float64(nil), p.ServiceTimes...)
	stats.SortAscending(sorted)
	mean, _ := stats.Mean(p.ServiceTimes)
	return PoolSummary{
		Mean: mean,
		P50:  stats.PercentileSorted(sorted, 50),
		P90:  stats.PercentileSorted(sorted, 90),
		P95:  stats.PercentileSorted(sorted, 95),
		Min:  sorted[0],
		Max:  sorted[len(sorted)-1],
	}
}

// SampleQueries returns n pool queries drawn deterministically (for figure
// examples needing "some" queries).
func (p *Platform) SampleQueries(n int, seed int64) []sim.PreparedQuery {
	rng := rand.New(rand.NewSource(seed))
	out := make([]sim.PreparedQuery, n)
	for i := range out {
		out[i] = p.Pool[rng.Intn(len(p.Pool))]
	}
	return out
}
