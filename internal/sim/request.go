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

// Request is one run's record of one arrival of a query at the ISN: what the
// workload fixed for it — a reference to the pool entry that holds everything
// the query itself determines (text, Table II features, and through PoolIdx
// its row of the platform's Predictions), its jittered work, its times — and
// what the run did with it, its lifecycle. Policies and routers see requests;
// a run builds its own from the workload's columns (Workload.requests), so a
// request is 104 bytes (TestRequestSize holds it under 112) and a run's slab
// of them is cheap to zero, fill and stream through.
type Request struct {
	// ID is the request's index in its workload.
	ID int
	// Entry is the pool query this request is an arrival of. Policies read
	// Entry.Features; it is nil for a request of a workload without a pool.
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
	// slot is the request's position in its run's slab; it indexes the
	// decision trace's pending records.
	slot int32

	// Lifecycle flags, beside the two indices so that they share one word.
	Started bool
	Done    bool
	Dropped bool
}

// LatencyMs returns completion latency (finish − arrival); for dropped
// requests it is the time until the drop.
func (r *Request) LatencyMs() float64 { return r.FinishMs - r.ArrivalMs }

// Violated reports whether the request missed its deadline (dropped requests
// count as violations: the aggregator never got their results in time).
func (r *Request) Violated() bool {
	return r.Dropped || (r.Done && r.FinishMs > r.DeadlineMs)
}

// Remaining returns the work left to execute.
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
func (p *Predictions) Lookup(r *Request) (svcMs, errMs float64, ok bool) {
	if p == nil || r.PoolIdx < 0 || int(r.PoolIdx) >= len(p.ServiceMs) {
		return 0, 0, false
	}
	return p.ServiceMs[r.PoolIdx], p.ErrMs[r.PoolIdx], true
}

// Workload is what a run's arrivals and seed fix, as dense per-request
// columns: request i arrives at ArrivalMs[i] and executes Draws[i]. No run
// writes to it. Each run materializes its own Request records from it
// (requests), so a workload gives the same result however often and by
// whichever runner it is run, and concurrent runs may share it.
type Workload struct {
	// ArrivalMs is the arrival time of each request, ascending. BuildWorkload
	// shares its caller's arrivals here.
	ArrivalMs []float64
	// Draws is what the workload seed fixed for each request.
	Draws []Draw
	// Pool is the query pool Draws index, nil for a hand-built workload
	// whose requests have no entry.
	Pool []PreparedQuery

	DurationMs float64
	// BudgetMs is every request's latency budget: request i's deadline is
	// ArrivalMs[i] + BudgetMs.
	BudgetMs float64
	// Preds, when non-nil, is the prediction table of the pool the requests
	// were drawn from, shared by every policy simulating this workload (see
	// Predictions).
	Preds *Predictions
}

// Draw is one request's share of the workload seed: the index of the pool
// entry it is an arrival of, and its base and jittered work (Request.PoolIdx,
// BaseWork and WorkTotal). A hand-built request sets the two works itself.
type Draw struct {
	Base, Work cpu.Work
	PoolIdx    int32
}

// Len returns the number of requests.
func (wl *Workload) Len() int { return len(wl.ArrivalMs) }

// Add appends a hand-built request arriving at arrivalMs.
func (wl *Workload) Add(arrivalMs float64, d Draw) {
	wl.ArrivalMs = append(wl.ArrivalMs, arrivalMs)
	wl.Draws = append(wl.Draws, d)
}

// requests materializes the run records of the requests idx lists, in its
// order, or of every request when idx is nil: one contiguous slab, in one
// allocation, that the run's engine walks by value. Every run builds its
// records here, inside its own job, so a core of a cluster run reads and
// writes only memory it has just filled.
func (wl *Workload) requests(idx []int32) []Request {
	n := len(idx)
	if idx == nil {
		n = wl.Len()
	}
	slab := make([]Request, n)
	for k := range slab {
		i := k
		if idx != nil {
			i = int(idx[k])
		}
		wl.record(&slab[k], i)
		slab[k].slot = int32(k)
	}
	return slab
}

// record writes what the workload fixes for request i into r, a record whose
// other fields are zero.
func (wl *Workload) record(r *Request, i int) {
	d := &wl.Draws[i]
	r.ID = i
	if wl.Pool != nil {
		r.Entry = &wl.Pool[d.PoolIdx]
	}
	r.PoolIdx = d.PoolIdx
	r.BaseWork, r.WorkTotal = d.Base, d.Work
	r.ArrivalMs = wl.ArrivalMs[i]
	r.DeadlineMs = r.ArrivalMs + wl.BudgetMs
}

// BuildWorkload samples one pool query per arrival (uniformly, seeded) and
// applies a fresh jitter draw per request instance — the same query arriving
// twice takes different measured times, as on real hardware. The workload
// shares arrivals and pool, so both must outlive it and stay unmodified.
//
// Draws come from the seed's workload stream (PartitionedRNG), which is
// bit-compatible with the historical shared rand.New(rand.NewSource(seed)):
// the same seed yields the same requests it always has, and draws on any
// other subsystem (routing, sched) can never perturb them.
func BuildWorkload(pool []PreparedQuery, arrivals []float64, jitter *search.Jitter, budgetMs, durationMs float64, seed int64) *Workload {
	rng := NewPartitionedRNG(seed).Workload()
	draws := make([]Draw, len(arrivals))
	for i := range draws {
		k := rng.Intn(len(pool))
		pq := &pool[k]
		draws[i] = Draw{Base: pq.BaseWork, Work: jitter.MeasuredWorkBias(pq.BaseWork, pq.Bias, rng), PoolIdx: int32(k)}
	}
	if durationMs == 0 && len(arrivals) > 0 {
		durationMs = arrivals[len(arrivals)-1] + budgetMs
	}
	// The capacity is clipped so that an Add cannot write into the caller's
	// array.
	return &Workload{ArrivalMs: arrivals[:len(arrivals):len(arrivals)], Draws: draws, Pool: pool, DurationMs: durationMs, BudgetMs: budgetMs}
}
