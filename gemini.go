// Package gemini is a from-scratch Go reproduction of "Gemini: Learning to
// Manage CPU Power for Latency-Critical Search Engines" (Zhou, Bhuyan,
// Ramakrishnan — MICRO 2020): per-query two-step DVFS driven by a neural
// service-time predictor and a second neural predictor for the first one's
// error, evaluated on a simulated Index Serving Node.
//
// The package is a facade over the full stack:
//
//   - a search engine substrate (inverted index, BM25 impacts, MaxScore
//     pruning, Table II feature extraction) standing in for Solr/Lucene;
//   - a dependency-free neural-network library (relu MLPs, Adam/RMSprop);
//   - a discrete-event ISN/CPU simulator with per-core DVFS, transition
//     stalls and a calibrated socket power model;
//   - the Gemini planner (paper eqs. 1–15) and the evaluated policies
//     (Baseline, Pegasus, Rubik, Gemini, Gemini-α, Gemini-95th) plus the
//     EETL-style and PACE-oracle extension baselines;
//   - an experiment harness that regenerates every table and figure of the
//     paper's evaluation.
//
// Quick start:
//
//	sys, err := gemini.NewSystem(gemini.Small())
//	res, _ := sys.Search("united kingdom")
//	metrics, _ := sys.Simulate("Gemini", gemini.TraceSpec{Kind: "wiki", EngineRPS: 60, DurationMs: 60_000})
//	fmt.Println(metrics.SocketPowerW, metrics.TailLatencyMs)
package gemini

import (
	"fmt"
	"slices"

	"gemini/internal/corpus"
	"gemini/internal/cpu"
	"gemini/internal/harness"
	"gemini/internal/par"
	"gemini/internal/search"
	"gemini/internal/sim"
	"gemini/internal/stats"
	"gemini/internal/trace"
)

// System is a fully assembled reproduction platform: corpus, index, engine,
// trained predictors, and the simulation/experiment harness.
type System struct {
	p   *harness.Platform
	set *harness.ExperimentSet
}

// Config controls system construction. The zero value is not valid; use
// Default or Small.
type Config struct {
	opts     harness.Options
	durScale float64
}

// Default returns the full-scale configuration (the one used to regenerate
// the paper's figures; builds in a few seconds).
func Default() Config {
	return Config{opts: harness.DefaultOptions(), durScale: 1}
}

// Small returns a fast, reduced-scale configuration for tests and demos.
func Small() Config {
	return Config{opts: harness.SmallOptions(), durScale: 0.2}
}

// WithSeed returns a copy of the config with a different master seed.
func (c Config) WithSeed(seed int64) Config {
	c.opts.Seed = seed
	return c
}

// WithBudgetMs returns a copy of the config with a different latency budget.
func (c Config) WithBudgetMs(budget float64) Config {
	c.opts.BudgetMs = budget
	return c
}

// NewSystem builds the platform: generates and indexes the corpus, scales
// the cost model so that the heaviest query kept runs at 82% of the budget
// at f_max, trains the latency and error predictors, and prepares the
// workload pool. Construction is deterministic per Config.
func NewSystem(cfg Config) (*System, error) {
	if cfg.opts.PoolSize == 0 {
		return nil, fmt.Errorf("gemini: zero Config; use gemini.Default() or gemini.Small()")
	}
	p := harness.NewPlatform(cfg.opts)
	return &System{p: p, set: harness.NewExperimentSet(p, cfg.durScale)}, nil
}

// SearchResult is one scored document of a query evaluation.
type SearchResult struct {
	Doc   int32
	Score float32
}

// Search evaluates a free-text query on the ISN index and returns the top-K
// documents together with the modeled service time at the default frequency.
func (s *System) Search(query string) ([]SearchResult, float64, error) {
	q, ok := corpus.ParseQuery(s.p.Corpus, query)
	if !ok {
		return nil, 0, fmt.Errorf("gemini: no query term found in %q", query)
	}
	ex := s.p.Engine.Search(q)
	out := make([]SearchResult, len(ex.Results))
	for i, r := range ex.Results {
		out[i] = SearchResult{Doc: r.Doc, Score: r.Score}
	}
	ms := cpu.TimeFor(s.p.Cost.WorkFor(ex.Stats), cpu.FDefault)
	return out, ms, nil
}

// Predict returns the NN predictors' view of a query: predicted service time
// at the default frequency (S*, eq. 1) and predicted error (E*, eq. 6).
func (s *System) Predict(query string) (predMs, predErrMs float64, err error) {
	q, ok := corpus.ParseQuery(s.p.Corpus, query)
	if !ok {
		return 0, 0, fmt.Errorf("gemini: no query term found in %q", query)
	}
	fv := s.p.Extractor.Features(q)
	return s.p.Classifier.PredictMs(fv), s.p.ErrPred.PredictErrMs(fv), nil
}

// Features returns the Table II feature vector of a query, paired with
// FeatureNames.
func (s *System) Features(query string) ([]float64, error) {
	q, ok := corpus.ParseQuery(s.p.Corpus, query)
	if !ok {
		return nil, fmt.Errorf("gemini: no query term found in %q", query)
	}
	fv := s.p.Extractor.Features(q)
	return fv[:], nil
}

// FeatureNames lists the Table II feature names in vector order.
func FeatureNames() []string {
	return search.FeatureNames[:]
}

// Policies lists the policy names accepted by Simulate.
func Policies() []string { return slices.Clone(harness.AllPolicyNames) }

// TraceSpec describes a workload for Simulate.
type TraceSpec struct {
	// Kind selects the arrival model: "wiki", "lucene", "trec" (the paper's
	// three traces) or "fixed" for a constant-rate Poisson stream.
	Kind string
	// File, when set, replays arrivals from a CSV trace file (one
	// arrival_ms per line, as written by geminisim trace) instead of
	// generating them; the arrivals are taken as ISN-level (no shard
	// fraction is applied) and Kind/EngineRPS are ignored.
	File string
	// EngineRPS is the engine-level request rate; each ISN serves
	// ShardFraction of it (see DESIGN.md).
	EngineRPS float64
	// DurationMs is the simulated duration (default 60 s).
	DurationMs float64
	// Seed varies the arrival and jitter draws (default 1).
	Seed int64
	// Cores > 0 dispatches the stream over a multi-core ISN cluster with
	// one policy instance per core (the paper's §V multi-core plan); the
	// socket power then counts the simulated cores plus an idle floor for
	// the rest. Cores == 0 simulates a single ISN whose core power is
	// extrapolated to all 12 sockets cores (the paper's measurement setup).
	// A Cores > 0 run shards its cores over GOMAXPROCS OS threads; the
	// metrics do not depend on GOMAXPROCS.
	Cores int
}

// Metrics summarizes one simulation run.
type Metrics struct {
	Policy        string
	Requests      int
	Completed     int
	Dropped       int
	ViolationRate float64
	DropRate      float64
	TailLatencyMs float64 // 95th percentile
	MeanLatencyMs float64
	SocketPowerW  float64
	Transitions   int
}

// Simulate runs one policy over a generated trace and returns its metrics.
// The per-request prediction stall is charged as in the paper's grids
// (harness.Platform.ConfigFor): Baseline, the governors, EETL and
// PACE-oracle run without it.
func (s *System) Simulate(policyName string, spec TraceSpec) (*Metrics, error) {
	// Resolved first, for both paths: a bad name must come back as an
	// error, not panic inside a cluster core's worker.
	pol, err := s.p.NewPolicy(policyName)
	if err != nil {
		return nil, err
	}
	if spec.DurationMs <= 0 {
		spec.DurationMs = 60_000
	}
	if spec.EngineRPS <= 0 {
		spec.EngineRPS = 60
	}
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	if spec.Kind == "" {
		spec.Kind = "fixed"
	}
	var tr *trace.Trace
	if spec.File != "" {
		loaded, err := trace.LoadFile(spec.File)
		if err != nil {
			return nil, err
		}
		tr = loaded
		if d := tr.DurationMs() + s.p.Opt.BudgetMs; d > spec.DurationMs {
			spec.DurationMs = d
		}
	} else {
		isnRPS := spec.EngineRPS * s.p.Opt.ShardFraction
		if spec.Kind == "fixed" {
			tr = trace.GenFixedRPS(isnRPS, spec.DurationMs, spec.Seed)
		} else {
			tr = trace.GenEvalTrace(spec.Kind, isnRPS, spec.DurationMs, spec.Seed)
		}
	}
	wl := s.p.Workload(tr.Arrivals, spec.DurationMs, spec.Seed+1)
	cfg := s.p.ConfigFor(pol.Name())

	if spec.Cores > 0 {
		cr := sim.RunClusterWorkers(cfg, wl, spec.Cores, par.DefaultWorkers(), func(int) sim.Policy {
			return s.p.MustPolicy(policyName)
		})
		mean, _ := stats.Mean(cr.QueryLatencies) // 0 when nothing completed
		transitions := 0
		for _, res := range cr.PerCore {
			transitions += res.Transitions
		}
		return &Metrics{
			Policy:        policyName,
			Requests:      cr.Total,
			Completed:     cr.Completed,
			Dropped:       cr.Dropped,
			ViolationRate: cr.ViolationRate(),
			DropRate:      cr.DropRate(),
			TailLatencyMs: cr.TailLatencyMs(95),
			MeanLatencyMs: mean,
			Transitions:   transitions,
			SocketPowerW:  cr.SocketPowerW(s.p.Power),
		}, nil
	}

	res := sim.Run(cfg, wl, pol)
	return &Metrics{
		Policy:        policyName,
		Requests:      res.Total,
		Completed:     res.Completed,
		Dropped:       res.Dropped,
		ViolationRate: res.ViolationRate(),
		DropRate:      res.DropRate(),
		TailLatencyMs: res.TailLatencyMs(95),
		MeanLatencyMs: res.MeanLatencyMs(),
		SocketPowerW:  res.SocketPowerW(s.p.Power),
		Transitions:   res.Transitions,
	}, nil
}

// Experiments lists the named paper experiments (tables, figures,
// ablations).
func (s *System) Experiments() []string { return s.set.Names() }

// Experiment runs a named paper experiment and returns its printable report.
func (s *System) Experiment(name string) (string, error) {
	rep, err := s.set.Run(name)
	if err != nil {
		return "", err
	}
	return rep.String(), nil
}

// Platform exposes the underlying harness platform for advanced use (the
// cmd/ tools and benchmarks build on it directly).
func (s *System) Platform() *harness.Platform { return s.p }
