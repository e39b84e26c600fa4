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

// Request is one arrival of a query at the ISN: a reference to the pool
// entry that holds everything the query itself determines (text, Table II
// features, and through PoolIdx its row of the platform's Predictions), plus
// what this arrival alone determines — its jittered work, its times, its
// lifecycle. A workload copies none of the entry, so a request is 104 bytes
// (TestRequestSize holds it under 112) and a slab of them is cheap to zero,
// fill and stream through.
type Request struct {
	ID int
	// Entry is the pool query this request is an arrival of. Policies read
	// Entry.Features; hand-built requests that no predictor looks at may
	// leave it nil.
	Entry *PreparedQuery

	// BaseWork is the deterministic execution cost; WorkTotal includes the
	// per-execution jitter and is the ground truth the simulator executes.
	// Policies must not read WorkTotal — they only see the entry's features
	// and their predictors (PACE-oracle, the clairvoyant bound, is the one
	// exception).
	BaseWork  cpu.Work
	WorkTotal cpu.Work

	ArrivalMs  float64
	DeadlineMs float64

	// Lifecycle, maintained by the simulator.
	StartMs  float64
	WorkDone cpu.Work
	FinishMs float64

	// Policy scratch: the service-time and error predictions made for this
	// request (diagnostics only; the simulator ignores them).
	PredictedMs float64
	PredErrMs   float64

	// PoolIdx is Entry's index in the pool the workload was built from, the
	// key of the pool-indexed tables (Predictions).
	PoolIdx int32
	// slot is the request's position in the workload of the run it is in,
	// stamped when its arrival event fires; it indexes the decision trace's
	// pending records.
	slot int32

	// Lifecycle flags, beside the two indices so that they share one word.
	Started bool
	Done    bool
	Dropped bool
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

// PreparedQuery is one pool entry: the properties of a query that do not
// change from one arrival to the next, derived once so that trace-driven
// workloads neither re-run retrieval nor re-evaluate the jitter model's
// systematic term for every arrival.
type PreparedQuery struct {
	Query    corpus.Query
	Features search.FeatureVector
	BaseWork cpu.Work
	// Bias is Jitter.Bias(Features) under the jitter model the pool was
	// prepared for. BuildWorkload reads it in place of evaluating Bias, so
	// it must be filled (PrepareQueries does) for any pool whose features the
	// jitter model responds to.
	Bias float64
}

// PrepareQueries builds the pool from one execution of each query: stats[i]
// is what the engine counted running queries[i].
func PrepareQueries(x *search.Extractor, cm *search.CostModel, jitter *search.Jitter, queries []corpus.Query, stats []search.ExecStats) []PreparedQuery {
	out := make([]PreparedQuery, len(queries))
	for i, q := range queries {
		fv := x.Features(q)
		out[i] = PreparedQuery{Query: q, Features: fv, BaseWork: cm.WorkFor(stats[i]), Bias: jitter.Bias(fv)}
	}
	return out
}

// Predictions is the table of NN predictor outputs for a query pool, indexed
// by pool entry (Request.PoolIdx). A prediction depends only on a query's
// features, never on the arrival, the policy or the run, so the harness
// builds the table once per platform — one pair of forwards per pool entry —
// and every workload, policy and worker shares it. Slots past the pool are
// the owner's to assign (the harness keeps the result-cache hit entry
// there). The table is read-only during simulation and therefore safe to
// share across concurrent runs.
type Predictions struct {
	ServiceMs []float64 // S*: service-time predictor output (eq. 1)
	ErrMs     []float64 // E*: error predictor output (eq. 6)
}

// Lookup returns the cached pair for r's pool entry and whether the table
// covers it.
//
//gemini:hotpath
func (p *Predictions) Lookup(r *Request) (svcMs, errMs float64, ok bool) {
	if p == nil || r.PoolIdx < 0 || int(r.PoolIdx) >= len(p.ServiceMs) {
		return 0, 0, false
	}
	return p.ServiceMs[r.PoolIdx], p.ErrMs[r.PoolIdx], true
}

// Workload is a fully materialized request sequence for one simulation run.
type Workload struct {
	Requests   []*Request
	DurationMs float64
	BudgetMs   float64
	// Preds, when non-nil, is the prediction table of the pool the requests
	// were drawn from, shared by every policy simulating this workload (see
	// Predictions).
	Preds *Predictions
}

// BuildWorkload samples one pool query per arrival (uniformly, seeded) and
// applies a fresh jitter draw per request instance — the same query arriving
// twice takes different measured times, as on real hardware. A request
// references its pool entry, so pool must outlive the workload and stay
// unmodified.
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
		k := rng.Intn(len(pool))
		pq := &pool[k]
		r := &slab[i]
		r.ID = i
		r.Entry = pq
		r.PoolIdx = int32(k)
		r.BaseWork = pq.BaseWork
		r.WorkTotal = jitter.MeasuredWorkBias(pq.BaseWork, pq.Bias, rng)
		r.ArrivalMs = at
		r.DeadlineMs = at + budgetMs
		reqs[i] = r
	}
	if durationMs == 0 && len(arrivals) > 0 {
		durationMs = arrivals[len(arrivals)-1] + budgetMs
	}
	return &Workload{Requests: reqs, DurationMs: durationMs, BudgetMs: budgetMs}
}
