package server

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"time"

	"gemini/internal/telemetry"
)

// AggPolicy selects how the aggregator waits for shards (paper ref [2],
// "Optimal aggregation policy for reducing tail latency of web search").
type AggPolicy int

const (
	// WaitAll waits for every shard (the full-quality, tail-exposed option).
	WaitAll AggPolicy = iota
	// Partial returns once Quorum shards responded or Timeout elapsed;
	// stragglers are ignored — exactly why the paper drops requests that
	// cannot meet the ISN deadline (§III-A).
	Partial
)

// AggResponse is the merged reply of the aggregator.
type AggResponse struct {
	Results         []ShardResult `json:"results"`
	ShardsAsked     int           `json:"shards_asked"`
	ShardsResponded int           `json:"shards_responded"`
	// TraceID is set when this query was head-sampled for tracing; its
	// stitched waterfall is retrievable at /debug/traces under this ID.
	TraceID string `json:"trace_id,omitempty"`
	// Stragglers counts shards whose replies were still in flight when the
	// aggregation returned (partial aggregation discards them, ref [2]).
	Stragglers int `json:"stragglers"`
	// ShardErrors counts shards whose requests failed outright.
	ShardErrors int     `json:"shard_errors"`
	LatencyMs   float64 `json:"latency_ms"`
	// PerShard carries each responding ISN's reply without its results:
	// timing, modeled service time, predictions and, for a traced query, its
	// span set. The results are in Results, merged; per_shard[i].results is
	// always null.
	PerShard []ISNResponse `json:"per_shard"`
}

// Aggregator broadcasts queries to the shard ISNs and merges the top-K.
type Aggregator struct {
	// ShardURLs are the ISNs' base URLs, read once at the first Search;
	// changing them afterwards has no effect.
	ShardURLs []string
	K         int
	Policy    AggPolicy
	Quorum    int           // Partial: shards to wait for (default all-1)
	Timeout   time.Duration // Partial: straggler cutoff (default 100 ms)
	// Client carries the fan-out legs: its Transport (nil means
	// http.DefaultTransport) sends them, and its Timeout (0 means none)
	// bounds each Search's fan-out as a whole. The legs go straight to the
	// Transport, so the Client's redirect policy and cookie jar play no part.
	Client *http.Client

	// BudgetMs is the end-to-end latency budget used for the decision
	// trace's slack/violation fields (DefaultBudgetMs when zero).
	BudgetMs float64
	// Metrics, when non-nil, receives the aggregation counters; attach via
	// Instrument so per-shard families render from startup.
	Metrics *Metrics
	// Tracer, when non-nil, receives one telemetry.Decision per aggregation:
	// the worst responding shard's S*/E* view against its modeled service
	// time, and the end-to-end outcome. Served at /debug/decisions.
	Tracer *telemetry.Tracer
	// Spans, when non-nil, receives the stitched waterfall of each
	// head-sampled query: the aggregator's query/shard/merge spans plus every
	// responding ISN's span set, rebased onto the aggregator's timeline.
	// Served at /debug/traces.
	Spans *telemetry.SpanTracer
	// TraceSample is the head-based sampling rate in [0, 1]: the fraction of
	// queries that carry TraceHeader to the shards and get a stitched
	// waterfall (1 = every query, 0 = tracing off even with Spans set).
	TraceSample float64
	// SLO, when non-nil, receives every aggregation's outcome for
	// error-budget burn tracking: successes classified by end-to-end wall
	// latency, outright failures as bad events. Served at /debug/slo and as
	// gemini_slo_* families by cmd/isnserver.
	SLO *SLOBinding

	mu        sync.Mutex
	seq       int
	sampleAcc float64 // sampling accumulator, guarded by mu
	// startedAt is the time origin of decision records and timeline rows,
	// set on the first aggregation or sampler attach.
	startedAt time.Time
	inFlight  int // aggregations under way, guarded by mu
	// tsc is the timeline window, guarded by mu; nil until StartTimeline
	// attaches a sampler.
	tsc *telemetry.SampleCursor

	targetsOnce sync.Once
	targets     []shardTarget // ShardURLs, parsed by the first Search
}

// shardTarget is one shard's /search endpoint.
type shardTarget struct {
	raw string   // the URL, for error messages
	url *url.URL // nil when raw does not parse; err says why
	err error
}

// legHeader is the request header of every untraced fan-out leg. It is
// shared and never modified.
var legHeader = http.Header{"Content-Type": jsonContentType}

// shardReply is one shard's settled fan-out leg: the decoded response (or
// error) plus the leg's send/receive offsets on the aggregator's timeline,
// recorded in the fan-out goroutine so span assembly is race-free.
type shardReply struct {
	idx    int
	resp   ISNResponse
	err    error
	sendMs float64 // offset of the shard request send, ms after Search start
	recvMs float64 // offset of the decoded reply, ms after Search start
}

// NewAggregator builds an aggregator over the shard endpoints.
func NewAggregator(urls []string, k int) *Aggregator {
	return &Aggregator{
		ShardURLs: urls,
		K:         k,
		Policy:    WaitAll,
		Quorum:    len(urls),
		Timeout:   100 * time.Millisecond,
		Client:    &http.Client{Timeout: 5 * time.Second},
	}
}

// Instrument attaches the shared metrics bundle and pre-registers every
// per-shard straggler/error counter so the families render (at zero) before
// any straggler occurs.
func (a *Aggregator) Instrument(m *Metrics) {
	if m == nil {
		return
	}
	a.Metrics = m
	for i := range a.ShardURLs {
		m.Registry.Counter(aggStragglerName, aggStragglerHelp, shardLabel(i))
		m.Registry.Counter(aggShardErrName, aggShardErrHelp, shardLabel(i))
	}
}

// shardTargets parses ShardURLs on first use.
func (a *Aggregator) shardTargets() []shardTarget {
	a.targetsOnce.Do(func() {
		a.targets = make([]shardTarget, len(a.ShardURLs))
		for i, base := range a.ShardURLs {
			t := &a.targets[i]
			t.raw = base + "/search"
			t.url, t.err = url.Parse(t.raw)
		}
	})
	return a.targets
}

// fanout is what one Search's legs share.
type fanout struct {
	ctx     context.Context
	rt      http.RoundTripper
	start   time.Time
	body    []byte
	getBody func() (io.ReadCloser, error)
	header  http.Header
	// results backs every leg's decoded results: leg i owns the window
	// [i·k, (i+1)·k), so a shard that answers with more than k results
	// grows into an array of its own, never into its neighbour's.
	results []ShardResult
	k       int
	replies chan shardReply
}

// legBody is a leg's request body.
type legBody struct{ bytes.Reader }

func (*legBody) Close() error { return nil }

// newBody returns a fresh reader of the request body: a leg's first, and the
// one the Transport asks for when it retries a leg on a stale keep-alive
// connection.
func (f *fanout) newBody() (io.ReadCloser, error) {
	b := new(legBody)
	b.Reset(f.body)
	return b, nil
}

// leg sends the query to one shard and hands its settled reply to Search.
func (f *fanout) leg(idx int, t *shardTarget) {
	rep := shardReply{idx: idx, sendMs: msSince(f.start)}
	rep.resp.Results = f.results[idx*f.k : idx*f.k : (idx+1)*f.k]
	rep.err = f.call(t, &rep.resp)
	rep.recvMs = msSince(f.start)
	f.replies <- rep
}

// call runs one leg's round trip and decodes the shard's reply into resp.
func (f *fanout) call(t *shardTarget, resp *ISNResponse) error {
	if t.err != nil {
		return t.err
	}
	body, _ := f.newBody() // cannot fail
	req := (&http.Request{
		Method:        http.MethodPost,
		URL:           t.url,
		Header:        f.header,
		Body:          body,
		GetBody:       f.getBody,
		ContentLength: int64(len(f.body)),
	}).WithContext(f.ctx)
	httpResp, err := f.rt.RoundTrip(req)
	if err != nil {
		return &url.Error{Op: "Post", URL: t.raw, Err: err}
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		return fmt.Errorf("shard %s: status %d", t.raw, httpResp.StatusCode)
	}
	buf := getBuf()
	defer putBuf(buf)
	if _, err := buf.ReadFrom(httpResp.Body); err != nil {
		return err
	}
	return resp.decodeJSON(buf.Bytes())
}

// Search broadcasts the query and merges shard responses per the policy.
func (a *Aggregator) Search(ctx context.Context, query string) (*AggResponse, error) {
	targets := a.shardTargets()
	if len(targets) == 0 {
		return nil, fmt.Errorf("server: aggregator has no shards")
	}
	start := time.Now()
	seq, t0, traceID := a.begin(start)
	ok := false
	defer func() { a.finish(start, ok) }()
	// Room for the query and the envelope around it: one allocation, kept by
	// the legs (and a retry's GetBody) for as long as any of them runs.
	body := (&SearchRequest{Query: query, K: a.K}).appendJSON(make([]byte, 0, len(query)+48))
	f := &fanout{rt: http.DefaultTransport, start: start, body: body, header: legHeader, k: max(a.K, 0)}
	var timeout time.Duration
	if c := a.Client; c != nil {
		timeout = c.Timeout
		if c.Transport != nil {
			f.rt = c.Transport
		}
	}
	// The legs run under one context, bounded by the Client's Timeout, that
	// Search cancels on return: a leg it stopped waiting for releases its
	// shard and connection at once rather than at the timeout.
	var cancel context.CancelFunc
	if timeout > 0 {
		f.ctx, cancel = context.WithTimeout(ctx, timeout)
	} else {
		f.ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	if traceID != "" {
		f.header = http.Header{"Content-Type": jsonContentType, TraceHeader: {traceID}}
	}
	f.getBody = f.newBody
	f.results = make([]ShardResult, len(targets)*f.k)
	// One slot per leg: every leg sends exactly one reply and never blocks,
	// whether or not Search is still receiving.
	f.replies = make(chan shardReply, len(targets))
	for i := range targets {
		go f.leg(i, &targets[i])
	}

	quorum := a.Quorum
	if quorum <= 0 || quorum > len(targets) {
		quorum = len(targets)
	}
	var cutoff <-chan time.Time // nil under WaitAll: never fires
	if a.Policy == Partial {
		deadline := time.NewTimer(a.Timeout)
		defer deadline.Stop()
		cutoff = deadline.C
	}

	agg := &AggResponse{
		ShardsAsked: len(targets), TraceID: traceID,
		PerShard: make([]ISNResponse, 0, len(targets)),
	}
	settled := make([]bool, len(targets)) // responded or errored
	var got []shardReply                  // responding legs, for span assembly
	var firstErr error
collect:
	for agg.ShardsResponded+agg.ShardErrors < len(targets) {
		if a.Policy == Partial && agg.ShardsResponded >= quorum {
			break
		}
		select {
		case rep := <-f.replies:
			settled[rep.idx] = true
			if rep.err != nil {
				a.shardError(rep.idx, &firstErr, rep.err, agg)
				continue
			}
			agg.PerShard = append(agg.PerShard, rep.resp)
			if traceID != "" {
				got = append(got, rep)
			}
			agg.ShardsResponded++
		case <-cutoff:
			break collect // ignore stragglers
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	// Every shard that never settled was abandoned in flight: a straggler
	// whose eventual reply partial aggregation discards (ref [2]).
	var stragglers []int
	for i, done := range settled {
		if !done {
			agg.Stragglers++
			stragglers = append(stragglers, i)
			if a.Metrics != nil {
				a.Metrics.shardStraggler(i)
			}
		}
	}
	if agg.ShardsResponded == 0 {
		if a.Metrics != nil {
			a.Metrics.aggErrors.Inc()
		}
		if firstErr != nil {
			return nil, firstErr
		}
		return nil, fmt.Errorf("server: no shard responded")
	}

	// Merge and rank across shards, keep the global top-K.
	total := 0
	for _, r := range agg.PerShard {
		total += len(r.Results)
	}
	if total > 0 { // as in ISN.execute: nothing found stays null
		agg.Results = make([]ShardResult, 0, total)
	}
	for i := range agg.PerShard {
		agg.Results = append(agg.Results, agg.PerShard[i].Results...)
		agg.PerShard[i].Results = nil // per_shard is timing only
	}
	slices.SortFunc(agg.Results, func(a, b ShardResult) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		}
		if a.Shard != b.Shard {
			return cmp.Compare(a.Shard, b.Shard)
		}
		return cmp.Compare(a.Doc, b.Doc)
	})
	if a.K > 0 && len(agg.Results) > a.K {
		agg.Results = agg.Results[:a.K]
	}
	agg.LatencyMs = float64(time.Since(start).Microseconds()) / 1000
	if traceID != "" {
		a.stitch(traceID, agg, got, stragglers)
	}
	a.observe(agg, seq, t0, start)
	ok = true
	return agg, nil
}

// budgetMs is the end-to-end latency budget, DefaultBudgetMs unless
// configured.
func (a *Aggregator) budgetMs() float64 {
	if a.BudgetMs > 0 {
		return a.BudgetMs
	}
	return DefaultBudgetMs
}

// finish settles one aggregation's accounting: a successful query completes
// with its wall latency (classified against the budget by the SLO binding
// and the timeline), a failed one counts as a drop and as bad budget burn.
func (a *Aggregator) finish(start time.Time, ok bool) {
	latencyMs := msSince(start)
	if ok {
		a.SLO.Observe(latencyMs)
	} else {
		a.SLO.ObserveBad()
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.inFlight--
	switch {
	case a.tsc == nil:
	case ok:
		a.tsc.OnCompletion(latencyMs)
	default:
		a.tsc.OnDrop()
	}
}

// begin allocates the aggregation's sequence number and trace-time origin
// and, when the head-based sampler selects this query, its trace ID.
func (a *Aggregator) begin(start time.Time) (seq int, t0 time.Time, traceID string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.seq++
	seq = a.seq
	a.inFlight++
	if a.tsc != nil {
		a.tsc.OnArrival(float64(a.inFlight))
	}
	if a.startedAt.IsZero() {
		a.startedAt = start
	}
	t0 = a.startedAt
	if a.Spans != nil && a.TraceSample > 0 {
		a.sampleAcc += a.TraceSample
		if a.sampleAcc >= 1 {
			a.sampleAcc--
			traceID = "agg-" + strconv.Itoa(seq)
		}
	}
	return seq, t0, traceID
}

// stitch assembles the sampled query's waterfall: a root span for the whole
// aggregation, one fan-out span per responding shard with the ISN's own span
// set rebased onto the aggregator's timeline, a merge span for the rank/trim
// tail, and one straggler span per abandoned shard recording the gap beyond
// the fan-out deadline (ref [2]). All times are ms after Search start.
func (a *Aggregator) stitch(traceID string, agg *AggResponse, got []shardReply, stragglers []int) {
	budget := a.budgetMs()
	spans := make([]telemetry.Span, 0, 2+3*len(got)+len(stragglers))
	spans = append(spans, telemetry.Span{
		TraceID: traceID, SpanID: "query", Name: "query",
		StartMs: 0, EndMs: agg.LatencyMs,
		Attrs: telemetry.Attrs{}.
			With(telemetry.AttrShardsAsked, float64(agg.ShardsAsked)).
			With(telemetry.AttrShardsResponded, float64(agg.ShardsResponded)).
			With(telemetry.AttrStragglers, float64(agg.Stragglers)).
			With(telemetry.AttrDeadlineSlackMs, budget-agg.LatencyMs),
	})
	var mergeStart float64
	for _, rep := range got {
		if rep.recvMs > mergeStart {
			mergeStart = rep.recvMs
		}
		shardID := "shard-" + strconv.Itoa(rep.idx)
		spans = append(spans, telemetry.Span{
			TraceID: traceID, SpanID: shardID, ParentID: "query", Name: "shard",
			StartMs: rep.sendMs, EndMs: rep.recvMs,
			Attrs: telemetry.Attrs{}.
				With(telemetry.AttrShard, float64(rep.idx)).
				With(telemetry.AttrServiceMs, rep.resp.ServiceMs),
		})
		// The ISN reported its spans relative to its receipt of the request;
		// rebase them by this leg's send offset so the whole waterfall shares
		// one timeline (network/encode time shows up as the residual between
		// the shard span and its children).
		for _, sp := range rep.resp.Spans {
			sp.StartMs += rep.sendMs
			sp.EndMs += rep.sendMs
			spans = append(spans, sp)
		}
	}
	timeoutMs := float64(a.Timeout.Microseconds()) / 1000
	for _, idx := range stragglers {
		gap := agg.LatencyMs - timeoutMs
		if gap < 0 {
			gap = 0
		}
		spans = append(spans, telemetry.Span{
			TraceID: traceID, SpanID: "straggler-" + strconv.Itoa(idx),
			ParentID: "query", Name: "straggler",
			StartMs: 0, EndMs: agg.LatencyMs,
			Attrs: telemetry.Attrs{}.
				With(telemetry.AttrShard, float64(idx)).
				With(telemetry.AttrGapMs, gap),
		})
	}
	spans = append(spans, telemetry.Span{
		TraceID: traceID, SpanID: "merge", ParentID: "query", Name: "merge",
		StartMs: mergeStart, EndMs: agg.LatencyMs,
		Attrs: telemetry.Attrs{}.With(telemetry.AttrResults, float64(len(agg.Results))),
	})
	a.Spans.EmitBatch(spans)
}

// shardError accounts one failed shard request.
func (a *Aggregator) shardError(idx int, firstErr *error, err error, agg *AggResponse) {
	agg.ShardErrors++
	if *firstErr == nil {
		*firstErr = err
	}
	if a.Metrics != nil {
		a.Metrics.shardError(idx)
	}
}

// observe records a completed aggregation into the metrics bundle and the
// decision trace. seq and t0 were allocated by begin at Search start.
func (a *Aggregator) observe(agg *AggResponse, seq int, t0 time.Time, start time.Time) {
	if a.Metrics == nil && a.Tracer == nil {
		return
	}
	// Self-overhead meter: see ISN.observe — the cost of observation itself.
	obsStart := time.Now()
	defer func() {
		if a.Metrics != nil {
			a.Metrics.obsNs.Add(uint64(time.Since(obsStart).Nanoseconds()))
			a.Metrics.obsCount.Inc()
		}
	}()
	if a.Metrics != nil {
		a.Metrics.aggRequests.Inc()
		a.Metrics.aggLatency.Observe(agg.LatencyMs)
		if agg.ShardsResponded < agg.ShardsAsked {
			a.Metrics.aggPartials.Inc()
		}
	}
	if a.Tracer == nil {
		return
	}
	budget := a.budgetMs()
	arrivalMs := float64(start.Sub(t0).Microseconds()) / 1000
	d := telemetry.Decision{
		Policy:          "aggregator",
		RequestID:       seq,
		ArrivalMs:       arrivalMs,
		CriticalID:      -1,
		QueueDepth:      agg.ShardsResponded,
		StartMs:         arrivalMs,
		FinishMs:        arrivalMs + agg.LatencyMs,
		ServiceMs:       agg.LatencyMs,
		LatencyMs:       agg.LatencyMs,
		DeadlineSlackMs: budget - agg.LatencyMs,
		// A straggler's reply is dropped, not a violation: partial
		// aggregation within the budget is a success with reduced quality,
		// surfaced by the straggler/partial counters.
		Violated: agg.LatencyMs > budget,
	}
	// The aggregation is governed by its slowest responding shard: carry
	// that shard's predicted-vs-modeled-actual pair as the aggregation's
	// prediction view.
	for _, r := range agg.PerShard {
		if r.ServiceMs > d.ActualMs {
			d.ActualMs = r.ServiceMs
			d.PredictedMs = r.PredictedMs
			d.PredErrMs = r.PredErrMs
		}
	}
	a.Tracer.Emit(d)
}

// ServeHTTP exposes the aggregator as an HTTP endpoint.
func (a *Aggregator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	if !decodeSearchRequest(w, r, &req) {
		return
	}
	resp, err := a.Search(r.Context(), req.Query)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	buf := getBuf()
	defer putBuf(buf)
	body, err := resp.appendJSON(buf.AvailableBuffer())
	writeJSON(w, buf, body, err)
}
