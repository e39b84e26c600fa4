// Package sim is the discrete-event simulator of a single-working-thread
// Index Serving Node (paper §V): a blocking FIFO queue in front of one CPU
// core with per-core DVFS, the constant transition stall Tdvfs, and energy
// integration against the cpu.PowerModel. Policies (Baseline, Pegasus,
// Rubik, the Gemini variants) drive the core's frequency through the Sim's
// control surface from arrival/start/departure/timer callbacks.
package sim

import (
	"gemini/internal/corpus"
	"gemini/internal/cpu"
	"gemini/internal/search"
)

// Request is one search query flowing through the ISN.
type Request struct {
	ID       int
	Query    corpus.Query
	Features search.FeatureVector

	// BaseWork is the deterministic execution cost; WorkTotal includes the
	// per-execution jitter and is the ground truth the simulator executes.
	// Policies must not read WorkTotal — they only see Features and their
	// predictors (PACE-oracle, the clairvoyant bound, is the one exception).
	BaseWork  cpu.Work
	WorkTotal cpu.Work

	ArrivalMs  float64
	DeadlineMs float64

	// Lifecycle, maintained by the simulator.
	Started  bool
	StartMs  float64
	WorkDone cpu.Work
	FinishMs float64
	Done     bool
	Dropped  bool

	// Policy scratch: the service-time and error predictions made for this
	// request (diagnostics only; the simulator ignores them).
	PredictedMs float64
	PredErrMs   float64

	// poolIdx is the request's index into the engine's struct-of-arrays pool
	// (its position in the workload), stamped by requestPool.load at the
	// start of every run.
	poolIdx int32
}

// LatencyMs returns completion latency (finish − arrival); for dropped
// requests it is the time until the drop.
//
//gemini:hotpath
func (r *Request) LatencyMs() float64 { return r.FinishMs - r.ArrivalMs }

// Violated reports whether the request missed its deadline (dropped requests
// count as violations: the aggregator never got their results in time).
//
//gemini:hotpath
func (r *Request) Violated() bool {
	return r.Dropped || (r.Done && r.FinishMs > r.DeadlineMs)
}

// Remaining returns the work left to execute.
//
//gemini:hotpath
func (r *Request) Remaining() cpu.Work { return r.WorkTotal - r.WorkDone }

// PreparedQuery caches the execution-derived properties of a pool query so
// trace-driven workloads do not re-run retrieval for every arrival.
type PreparedQuery struct {
	Query    corpus.Query
	Features search.FeatureVector
	BaseWork cpu.Work
}

// PrepareQueries executes each query once on the engine to derive its
// features and deterministic base work.
func PrepareQueries(e *search.Engine, x *search.Extractor, cm *search.CostModel, queries []corpus.Query) []PreparedQuery {
	out := make([]PreparedQuery, len(queries))
	for i, q := range queries {
		ex := e.Search(q)
		out[i] = PreparedQuery{
			Query:    q,
			Features: x.Features(q),
			BaseWork: cm.WorkFor(ex.Stats),
		}
	}
	return out
}

// Predictions is a per-request table of NN predictor outputs, indexed by
// Request.ID. The harness precomputes it once per workload (predictions
// depend only on a request's features, never on the policy or the run), so
// every policy simulating the workload shares one table instead of re-running
// both NN forwards per request — O(requests) forwards for a whole policy
// sweep instead of O(policies × requests). The table is read-only during
// simulation and therefore safe to share across concurrent runs.
type Predictions struct {
	ServiceMs []float64 // S*: service-time predictor output (eq. 1)
	ErrMs     []float64 // E*: error predictor output (eq. 6)
}

// Lookup returns the cached pair for r and whether the table covers it.
func (p *Predictions) Lookup(r *Request) (svcMs, errMs float64, ok bool) {
	if p == nil || r.ID < 0 || r.ID >= len(p.ServiceMs) {
		return 0, 0, false
	}
	return p.ServiceMs[r.ID], p.ErrMs[r.ID], true
}

// Workload is a fully materialized request sequence for one simulation run.
type Workload struct {
	Requests   []*Request
	DurationMs float64
	BudgetMs   float64
	// Preds, when non-nil, holds precomputed per-request predictions shared
	// by every policy simulating this workload (see Predictions).
	Preds *Predictions
}

// BuildWorkload samples one pool query per arrival (uniformly, seeded) and
// applies a fresh jitter draw per request instance — the same query arriving
// twice takes different measured times, as on real hardware.
//
// Draws come from the seed's workload stream (PartitionedRNG), which is
// bit-compatible with the historical shared rand.New(rand.NewSource(seed)):
// the same seed yields the same requests it always has, and draws on any
// other subsystem (routing, sched) can never perturb them.
func BuildWorkload(pool []PreparedQuery, arrivals []float64, jitter *search.Jitter, budgetMs, durationMs float64, seed int64) *Workload {
	rng := NewPartitionedRNG(seed).Workload()
	slab := make([]Request, len(arrivals)) // every request of the workload, contiguous in arrival order
	reqs := make([]*Request, len(arrivals))
	for i, at := range arrivals {
		pq := &pool[rng.Intn(len(pool))]
		r := &slab[i]
		r.ID = i
		r.Query = pq.Query
		r.Features = pq.Features
		r.BaseWork = pq.BaseWork
		r.WorkTotal = jitter.MeasuredWork(pq.BaseWork, pq.Features, rng)
		r.ArrivalMs = at
		r.DeadlineMs = at + budgetMs
		reqs[i] = r
	}
	if durationMs == 0 && len(arrivals) > 0 {
		durationMs = arrivals[len(arrivals)-1] + budgetMs
	}
	return &Workload{Requests: reqs, DurationMs: durationMs, BudgetMs: budgetMs}
}
