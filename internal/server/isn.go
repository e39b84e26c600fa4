// Package server implements the paper's partition-aggregate search
// architecture (Fig. 1a) as real HTTP services: Index Serving Nodes with the
// Fig. 9 structure (SearchHandler → blocking queue → single working thread →
// engine) and an aggregator that broadcasts each query to every shard and
// merges the top-K responses, with the paper's aggregation-policy options
// (wait-for-all vs. partial aggregation with a timeout, ref [2] — stragglers
// beyond the timeout are ignored, which is why ISN-level deadlines matter).
//
// The servers run real retrieval; DVFS remains the domain of the simulator
// (a real process cannot meaningfully change a laptop's frequency per
// query), but each ISN response carries the modeled service time and the
// predictors' view of the query, demonstrating the cross-process control
// path the paper built on Solr.
package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"gemini/internal/core"
	"gemini/internal/corpus"
	"gemini/internal/cpu"
	"gemini/internal/predictor"
	"gemini/internal/search"
	"gemini/internal/telemetry"
)

// DefaultBudgetMs is the per-query latency budget assumed when none is
// configured (the paper's 40 ms ISN deadline, §II-A).
const DefaultBudgetMs = 40

// SearchRequest is the JSON body of POST /search.
type SearchRequest struct {
	Query string `json:"query"`
	K     int    `json:"k,omitempty"`
}

// ShardResult is one document in an ISN response.
type ShardResult struct {
	Shard int     `json:"shard"`
	Doc   int32   `json:"doc"`
	Score float32 `json:"score"`
}

// TraceHeader is the HTTP header carrying the aggregator's trace ID to each
// shard; an ISN that receives it returns its span set in the response
// envelope for the aggregator to stitch into the query waterfall.
const TraceHeader = "X-Gemini-Trace"

// ISNResponse is the JSON body of an ISN's reply.
type ISNResponse struct {
	Shard       int           `json:"shard"`
	Results     []ShardResult `json:"results"`
	ServiceMs   float64       `json:"service_ms"`   // modeled at FDefault
	PredictedMs float64       `json:"predicted_ms"` // S* (0 if no predictor)
	PredErrMs   float64       `json:"pred_err_ms"`  // E* (0 if no predictor)
	QueueDepth  int           `json:"queue_depth"`
	// QueueWaitMs/ExecWallMs split the wall latency into the Fig. 9 phases:
	// time on the blocking queue vs. time on the working thread.
	QueueWaitMs float64 `json:"queue_wait_ms,omitempty"`
	ExecWallMs  float64 `json:"exec_wall_ms,omitempty"`
	// Spans is the shard's span set for this query, present only when the
	// request carried TraceHeader. Times are ms relative to the ISN's
	// receipt of the request; the aggregator rebases them onto its own
	// timeline when stitching.
	Spans []telemetry.Span `json:"spans,omitempty"`
}

// ISN is one Index Serving Node: a single working thread draining a
// blocking queue of search tasks (paper Fig. 9).
type ISN struct {
	ShardID   int
	Corpus    *corpus.Corpus
	Engine    *search.Engine
	Extractor *search.Extractor
	Cost      *search.CostModel

	// Service and ErrPred, when set, annotate responses with the paper's
	// predictions (the inputs Gemini's DVFS controller would consume).
	Service predictor.ServicePredictor
	ErrPred predictor.ErrorPredictor

	// BudgetMs is the per-query latency budget driving the modeled DVFS plan
	// and the deadline-slack telemetry (DefaultBudgetMs when zero).
	BudgetMs float64
	// Tracer, when non-nil, receives one telemetry.Decision per served query:
	// the predictors' view, the plan §III-A would have chosen, and the modeled
	// outcome. Served at /debug/decisions by cmd/isnserver.
	Tracer *telemetry.Tracer
	// Spans, when non-nil, retains the span sets of traced queries (those
	// whose request carried TraceHeader) for the shard's own /debug/traces
	// endpoint; the same spans travel back in the response envelope either
	// way.
	Spans *telemetry.SpanTracer
	// SLO, when non-nil, receives every request's outcome for error-budget
	// burn tracking: served requests classified by wall latency against the
	// binding's deadline, queue-full rejections as bad events. Served at
	// /debug/slo and as gemini_slo_* families by cmd/isnserver.
	SLO *SLOBinding

	queue    chan isnTask
	started  sync.Once
	stopOnce sync.Once
	stopped  chan struct{}
	depth    int
	mu       sync.Mutex

	// Modeled DVFS state (real frequencies stay the simulator's domain; the
	// live path models the plan each query would have executed, see the
	// package comment). Guarded by mu.
	planner     core.Params
	power       *cpu.PowerModel
	ladder      *cpu.Ladder
	modelFreq   cpu.Freq
	energyMJ    float64
	transitions uint64
	seq         int

	// tsc is the timeline window, guarded by mu; nil (a pointer test per
	// lifecycle event) until StartTimeline attaches a sampler.
	tsc *telemetry.SampleCursor

	met *isnInstruments
	t0  time.Time // time origin of decision records and timeline rows
}

type isnTask struct {
	ctx      context.Context // the request's: ended once its client has gone
	query    corpus.Query
	k        int
	enqueued time.Time
	resp     chan ISNResponse
}

// NewISN builds an ISN over its shard.
func NewISN(shard int, c *corpus.Corpus, eng *search.Engine, cost *search.CostModel) *ISN {
	return &ISN{
		ShardID:   shard,
		Corpus:    c,
		Engine:    eng,
		Extractor: search.NewExtractor(eng),
		Cost:      cost,
		queue:     make(chan isnTask, 1024),
		stopped:   make(chan struct{}),
		planner:   core.DefaultParams(),
		power:     cpu.DefaultPowerModel(),
		ladder:    cpu.DefaultLadder(),
		modelFreq: cpu.FDefault,
		t0:        time.Now(),
	}
}

// Instrument attaches the shared metrics bundle; the shard's labeled
// instruments are created (and therefore rendered, at zero) immediately.
func (n *ISN) Instrument(m *Metrics) {
	if m == nil {
		return
	}
	n.met = m.isnInstruments(n.ShardID)
}

// Start launches the working thread. Idempotent.
func (n *ISN) Start() {
	n.started.Do(func() { go n.worker() })
}

// Stop terminates the working thread without draining the queue: requests
// still queued, and any that arrive later, are answered 503. Calling it more
// than once is safe.
func (n *ISN) Stop() { n.stopOnce.Do(func() { close(n.stopped) }) }

func (n *ISN) worker() {
	for {
		select {
		case t := <-n.queue:
			if t.ctx.Err() != nil {
				continue // its handler has left (ServeHTTP); nobody waits for the reply
			}
			t.resp <- n.execute(t)
		case <-n.stopped:
			return
		}
	}
}

// leave takes one request out of the admission count, on whichever path it
// leaves the handler; shed marks it as refused, which burns SLO budget
// without a latency.
func (n *ISN) leave(shed bool) {
	n.mu.Lock()
	n.depth--
	depth := n.depth
	if shed && n.tsc != nil {
		n.tsc.OnDrop()
	}
	n.mu.Unlock()
	if n.met != nil {
		n.met.queueDepth.Set(float64(depth))
	}
	if shed {
		n.SLO.ObserveBad()
	}
}

func (n *ISN) execute(t isnTask) ISNResponse {
	dequeued := time.Now()
	ex := n.Engine.Search(t.query)
	resp := ISNResponse{
		Shard:       n.ShardID,
		ServiceMs:   cpu.TimeFor(n.Cost.WorkFor(ex.Stats), cpu.FDefault),
		QueueWaitMs: msBetween(t.enqueued, dequeued),
	}
	k := t.k
	if k <= 0 || k > len(ex.Results) {
		k = len(ex.Results)
	}
	if k > 0 { // an empty reply keeps its null results on the wire
		resp.Results = make([]ShardResult, 0, k)
	}
	for _, r := range ex.Results[:k] {
		resp.Results = append(resp.Results, ShardResult{Shard: n.ShardID, Doc: r.Doc, Score: r.Score})
	}
	if n.Service != nil {
		fv := n.Extractor.Features(t.query)
		resp.PredictedMs = n.Service.PredictMs(fv)
		if n.ErrPred != nil {
			resp.PredErrMs = n.ErrPred.PredictErrMs(fv)
		}
	}
	resp.ExecWallMs = msSince(dequeued)
	return resp
}

// maxRequestBytes bounds the body of a POST /search on both listeners; a
// query is a line of text, and the ISN looks every word of it up.
const maxRequestBytes = 64 << 10

// decodeSearchRequest reads the JSON body of a POST /search into req, as
// json.Unmarshal would decode it, answering the request itself (413 for a
// body over maxRequestBytes, 400 for anything else that does not decode,
// trailing bytes included) and returning false when it could not.
func decodeSearchRequest(w http.ResponseWriter, r *http.Request, req *SearchRequest) bool {
	buf := getBuf()
	defer putBuf(buf)
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err == nil {
		err = req.decodeJSON(buf.Bytes())
	}
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	http.Error(w, "bad request: "+err.Error(), status)
	return false
}

// budgetMs is the ISN's latency budget, DefaultBudgetMs unless configured.
func (n *ISN) budgetMs() float64 {
	if n.BudgetMs > 0 {
		return n.BudgetMs
	}
	return DefaultBudgetMs
}

// msSince returns the wall milliseconds elapsed since t.
func msSince(t time.Time) float64 { return msBetween(t, time.Now()) }

// msBetween returns b − a in milliseconds.
func msBetween(a, b time.Time) float64 {
	return float64(b.Sub(a).Microseconds()) / 1000
}

// observe records the served query into the shard's instruments and decision
// trace — the wall latency, the §III-A plan the modeled DVFS would have
// executed for the predicted service time, and its energy and transitions —
// and, when the request carried a trace ID, attaches the shard's span set to
// the response for the aggregator to stitch. A no-op unless the ISN is
// instrumented or traced.
func (n *ISN) observe(resp *ISNResponse, start time.Time, depth int, traceID string) {
	if n.met == nil && n.Tracer == nil && traceID == "" {
		return
	}
	// Self-overhead meter: the wall cost of this observation block itself
	// (metrics, modeled plan, decision emit, span assembly), so "bounded when
	// enabled" is a measured claim. The clock reads only run when telemetry
	// is on — the disabled path returned above.
	obsStart := time.Now()
	defer func() {
		if n.met != nil {
			n.met.obsNs.Add(uint64(time.Since(obsStart).Nanoseconds()))
			n.met.obsCount.Inc()
		}
	}()
	latencyMs := msSince(start)
	budget := n.budgetMs()

	// The plan §III-A would choose: eq. 5 initial frequency and eq. 7 boost
	// for a predicted query, single-step FDefault when no predictor is
	// attached.
	plan := core.Plan{Initial: cpu.FDefault, Boost: cpu.FDefault, BoostAt: math.Inf(1)}
	if resp.PredictedMs > 0 {
		plan = n.planner.PlanSingle(0, budget, resp.PredictedMs, resp.PredErrMs)
	}
	work := cpu.WorkFor(resp.ServiceMs, cpu.FDefault)
	mx := n.applyModel(plan, work)
	execMs, energyMJ, transitions, totalMJ, seq := mx.execMs, mx.energyMJ, mx.transitions, mx.totalMJ, mx.seq

	// Feed the Gemini-α style moving-average estimator, when attached, with
	// the observed error magnitude so E* adapts to the live stream.
	if ma, ok := n.ErrPred.(*predictor.MovingAvgError); ok && resp.PredictedMs > 0 {
		ma.Observe(resp.ServiceMs - resp.PredictedMs)
	}

	if n.met != nil {
		n.met.requests.Inc()
		n.met.latency.Observe(latencyMs)
		n.met.service.Observe(resp.ServiceMs)
		n.met.energy.Set(totalMJ)
		if transitions > 0 {
			n.met.transitions.Add(uint64(transitions))
		}
		if resp.PredictedMs > 0 {
			n.met.predTotal.Inc()
			abs := resp.ServiceMs - resp.PredictedMs
			if abs < 0 {
				abs = -abs
			}
			n.met.predAbsErr.Observe(abs)
			if resp.ServiceMs <= resp.PredictedMs+resp.PredErrMs {
				n.met.predCovered.Inc()
			}
		}
	}
	if n.Tracer != nil {
		arrivalMs := float64(start.Sub(n.t0).Microseconds()) / 1000
		d := telemetry.Decision{
			Policy:          "isn-live",
			RequestID:       seq,
			ArrivalMs:       arrivalMs,
			PredictedMs:     resp.PredictedMs,
			PredErrMs:       resp.PredErrMs,
			InitialFreqGHz:  float64(plan.Initial),
			CriticalID:      -1,
			QueueDepth:      depth,
			StartFreqGHz:    float64(plan.Initial),
			StartMs:         arrivalMs,
			FinishMs:        arrivalMs + latencyMs,
			ServiceMs:       execMs,
			ActualMs:        resp.ServiceMs,
			LatencyMs:       latencyMs,
			DeadlineSlackMs: budget - latencyMs,
			Transitions:     transitions,
			EnergyMJ:        energyMJ,
			Violated:        latencyMs > budget,
		}
		if plan.HasBoost() {
			d.BoostFreqGHz = float64(plan.Boost)
			d.BoostAtMs = plan.BoostAt
		}
		n.Tracer.Emit(d)
	}
	if traceID != "" {
		resp.Spans = n.buildSpans(traceID, resp, plan, mx)
		n.Spans.EmitBatch(resp.Spans)
	}
}

// buildSpans assembles the shard's span set for one traced query: the real
// queue-wait and working-thread phases (Fig. 9), plus the modeled DVFS
// phases — the time the query would have spent at the planned initial
// frequency f* and at the boost frequency — nested under the execution span.
// Times are ms relative to the ISN's receipt of the request (span 0 starts
// at 0); the aggregator rebases them when stitching.
func (n *ISN) buildSpans(traceID string, resp *ISNResponse, plan core.Plan, mx modelExec) []telemetry.Span {
	pfx := "isn" + strconv.Itoa(n.ShardID)
	shardParent := "shard-" + strconv.Itoa(n.ShardID)
	execStart := resp.QueueWaitMs
	execEnd := execStart + resp.ExecWallMs
	shard := telemetry.Attrs{}.With(telemetry.AttrShard, float64(n.ShardID))
	spans := []telemetry.Span{
		{
			TraceID: traceID, SpanID: pfx + "-queue", ParentID: shardParent, Name: "isn-queue",
			StartMs: 0, EndMs: execStart,
			Attrs: shard.With(telemetry.AttrQueueDepth, float64(resp.QueueDepth)),
		},
		{
			TraceID: traceID, SpanID: pfx + "-exec", ParentID: shardParent, Name: "isn-exec",
			StartMs: execStart, EndMs: execEnd,
			Attrs: shard.With(telemetry.AttrServiceMs, resp.ServiceMs),
		},
		{
			TraceID: traceID, SpanID: pfx + "-model-initial", ParentID: pfx + "-exec", Name: "isn-model-initial",
			StartMs: execStart, EndMs: execStart + mx.initialMs,
			Attrs: telemetry.Attrs{}.With(telemetry.AttrFreqGHz, float64(plan.Initial)).With(telemetry.AttrEnergyMJ, mx.initialMJ),
		},
	}
	if mx.boosted {
		spans = append(spans, telemetry.Span{
			TraceID: traceID, SpanID: pfx + "-model-boost", ParentID: pfx + "-exec", Name: "isn-model-boost",
			StartMs: execStart + mx.initialMs, EndMs: execStart + mx.execMs,
			Attrs: telemetry.Attrs{}.With(telemetry.AttrFreqGHz, float64(plan.Boost)).With(telemetry.AttrEnergyMJ, mx.energyMJ-mx.initialMJ),
		})
	}
	return spans
}

// modelExec is one query's outcome under the modeled DVFS plan: total
// execution time and energy, the initial-phase/boost-phase split (for the
// span waterfall), and the shard's cumulative state after the query.
type modelExec struct {
	execMs      float64
	energyMJ    float64
	initialMs   float64 // time in the initial (f*) step; == execMs when !boosted
	initialMJ   float64
	boosted     bool
	transitions int
	totalMJ     float64
	seq         int
}

// applyModel advances the shard's modeled DVFS state by one query: execute
// the plan against the query's true work, counting the frequency transitions
// it incurs and charging busy-core energy (W x ms = mJ) at each step.
func (n *ISN) applyModel(plan core.Plan, work cpu.Work) modelExec {
	n.mu.Lock()
	defer n.mu.Unlock()
	var mx modelExec
	f := plan.Initial
	//gemini:allow floatcmp -- plan frequencies are discrete ladder levels; exact change detection counts real transitions
	if f != n.modelFreq {
		mx.transitions++
		n.modelFreq = f
	}
	firstMs := cpu.TimeFor(work, f)
	if plan.HasBoost() && firstMs > plan.BoostAt {
		// The boost step engaged: the remainder runs at the maximum.
		w1 := cpu.WorkFor(plan.BoostAt, f)
		mx.boosted = true
		mx.initialMs = plan.BoostAt
		mx.initialMJ = n.power.CoreW(f, true) * plan.BoostAt
		mx.execMs = plan.BoostAt + cpu.TimeFor(work-w1, plan.Boost)
		mx.energyMJ = mx.initialMJ +
			n.power.CoreW(plan.Boost, true)*(mx.execMs-plan.BoostAt)
		mx.transitions++
		n.modelFreq = plan.Boost
	} else {
		mx.execMs = firstMs
		mx.initialMs = firstMs
		mx.energyMJ = n.power.CoreW(f, true) * mx.execMs
		mx.initialMJ = mx.energyMJ
	}
	if n.tsc != nil && mx.transitions > 0 {
		n.tsc.SetLevel(n.ladder.Index(n.modelFreq), msSince(n.t0))
	}
	n.energyMJ += mx.energyMJ
	n.transitions += uint64(mx.transitions)
	n.seq++
	mx.totalMJ = n.energyMJ
	mx.seq = n.seq
	return mx
}

// respChans recycles the ISNs' reply channels. A channel goes back only
// after its reply was received: on every other way out of ServeHTTP the
// working thread may still send into it.
var respChans = sync.Pool{New: func() any { return make(chan ISNResponse, 1) }}

// ServeHTTP implements the ISN's /search endpoint: enqueue the task on the
// blocking queue and wait for the working thread (the Fig. 9 Callable +
// Executor structure). A full queue is answered 503 at once, and so is every
// request the working thread has not answered when the ISN stops. A request
// whose client goes away while it waits leaves at once, counted as a drop,
// and the working thread skips it.
func (n *ISN) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n.Start()
	var req SearchRequest
	if !decodeSearchRequest(w, r, &req) {
		return
	}
	q, ok := corpus.ParseQuery(n.Corpus, req.Query)
	if !ok {
		http.Error(w, fmt.Sprintf("no known term in %q", req.Query), http.StatusBadRequest)
		return
	}
	start := time.Now()
	traceID := r.Header.Get(TraceHeader)
	n.mu.Lock()
	n.depth++
	depth := n.depth
	if n.tsc != nil {
		n.tsc.OnArrival(float64(depth))
	}
	n.mu.Unlock()
	if n.met != nil {
		n.met.queueDepth.Set(float64(depth))
	}

	respCh := respChans.Get().(chan ISNResponse)
	select {
	case n.queue <- isnTask{ctx: r.Context(), query: q, k: req.K, enqueued: start, resp: respCh}:
	default: // queue full: shed at once, the caller's deadline is lost anyway
		n.leave(true)
		http.Error(w, "queue full", http.StatusServiceUnavailable)
		return
	}
	var resp ISNResponse
	select {
	case resp = <-respCh:
		respChans.Put(respCh)
	case <-r.Context().Done():
		n.leave(true)
		http.Error(w, "client went away", http.StatusServiceUnavailable)
		return
	case <-n.stopped: // the working thread is gone: nobody will answer
		n.leave(true)
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	n.leave(false)
	resp.QueueDepth = depth
	n.observe(&resp, start, depth, traceID)
	latencyMs := msSince(start)
	n.SLO.Observe(latencyMs)
	n.mu.Lock()
	if n.tsc != nil {
		n.tsc.OnCompletion(latencyMs)
	}
	n.mu.Unlock()
	buf := getBuf()
	defer putBuf(buf)
	body, err := resp.appendJSON(buf.AvailableBuffer())
	writeJSON(w, buf, body, err)
}
