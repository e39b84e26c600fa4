package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gemini/internal/telemetry"
)

// newSlowShard serves a shard endpoint that never answers within d.
func newSlowShard(t *testing.T, d time.Duration) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(d)
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestISNSpansOnlyWhenTraced pins the head-sampling contract on the shard
// side: a request carrying TraceHeader gets the span set in its response
// envelope (and into the ISN's own tracer), a plain request gets none.
func TestISNSpansOnlyWhenTraced(t *testing.T) {
	isns, _, urls := testCluster(t, 1)
	isns[0].Spans = telemetry.NewSpanTracer(64)

	_, plain := postSearch(t, urls[0], "canada")
	if len(plain.Spans) != 0 {
		t.Fatalf("untraced request returned %d spans", len(plain.Spans))
	}
	if isns[0].Spans.Total() != 0 {
		t.Fatalf("untraced request retained %d spans", isns[0].Spans.Total())
	}

	body, _ := json.Marshal(SearchRequest{Query: "canada"})
	req, _ := http.NewRequest(http.MethodPost, urls[0]+"/search", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TraceHeader, "t-123")
	httpResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var r ISNResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&r); err != nil {
		t.Fatal(err)
	}
	if len(r.Spans) < 3 {
		t.Fatalf("traced request returned %d spans, want >= 3", len(r.Spans))
	}
	names := map[string]telemetry.Span{}
	for _, sp := range r.Spans {
		if sp.TraceID != "t-123" {
			t.Fatalf("span trace id = %q", sp.TraceID)
		}
		names[sp.Name] = sp
	}
	q, qok := names["isn-queue"]
	e, eok := names["isn-exec"]
	m, mok := names["isn-model-initial"]
	if !qok || !eok || !mok {
		t.Fatalf("span names = %v", names)
	}
	// Times are relative to request receipt: queue starts at 0 and hands off
	// to the exec span exactly where the response envelope says.
	if q.StartMs != 0 || q.EndMs != r.QueueWaitMs {
		t.Errorf("queue span [%v, %v], queue wait %v", q.StartMs, q.EndMs, r.QueueWaitMs)
	}
	// The span stores start and start+wall, so its duration is the wall time
	// only up to float rounding.
	if e.StartMs != q.EndMs || math.Abs(e.DurationMs()-r.ExecWallMs) > 1e-9 {
		t.Errorf("exec span [%v, %v], exec wall %v", e.StartMs, e.EndMs, r.ExecWallMs)
	}
	if m.ParentID != e.SpanID || m.Attr("freq_ghz") <= 0 {
		t.Errorf("model span parent %q freq %v", m.ParentID, m.Attr("freq_ghz"))
	}
	if got := isns[0].Spans.Total(); got != uint64(len(r.Spans)) {
		t.Errorf("ISN retained %d spans, response carried %d", got, len(r.Spans))
	}
}

// TestAggregatorTraceStitching is the tentpole's end-to-end check: a sampled
// query produces one stitched waterfall whose shard spans (and their rebased
// ISN children) nest inside the root query span, with the shard fan-out legs
// accounting for the end-to-end latency up to aggregation overhead.
func TestAggregatorTraceStitching(t *testing.T) {
	_, _, urls := testCluster(t, 2)
	agg := NewAggregator(urls, 10)
	agg.Spans = telemetry.NewSpanTracer(256)
	agg.TraceSample = 1

	resp, err := agg.Search(context.Background(), "united kingdom")
	if err != nil {
		t.Fatal(err)
	}
	if resp.TraceID == "" {
		t.Fatal("sampled query has no trace id")
	}

	views := agg.Spans.Traces(0)
	if len(views) != 1 {
		t.Fatalf("traces = %d, want 1", len(views))
	}
	v := views[0]
	if v.TraceID != resp.TraceID {
		t.Fatalf("trace id %q, response says %q", v.TraceID, resp.TraceID)
	}

	var root *telemetry.Span
	var shards, isnExecs []telemetry.Span
	mergeSeen := false
	for i := range v.Spans {
		sp := v.Spans[i]
		switch sp.Name {
		case "query":
			root = &v.Spans[i]
		case "shard":
			shards = append(shards, sp)
		case "merge":
			mergeSeen = true
		case "isn-exec":
			isnExecs = append(isnExecs, sp)
		}
	}
	if root == nil || !mergeSeen {
		t.Fatalf("root=%v merge=%v in %d spans", root != nil, mergeSeen, len(v.Spans))
	}
	if root.DurationMs() != resp.LatencyMs {
		t.Errorf("root span %v ms, response latency %v ms", root.DurationMs(), resp.LatencyMs)
	}
	if len(shards) != 2 || len(isnExecs) != 2 {
		t.Fatalf("shard spans = %d, isn-exec spans = %d, want 2/2", len(shards), len(isnExecs))
	}
	// Every shard leg nests inside the query window, and the slowest leg
	// accounts for the end-to-end latency up to the merge overhead.
	const epsMs = 1e-6
	var slowest float64
	for _, sp := range shards {
		if sp.ParentID != "query" {
			t.Errorf("shard span parent = %q", sp.ParentID)
		}
		if sp.StartMs < -epsMs || sp.EndMs > root.EndMs+epsMs {
			t.Errorf("shard span [%v, %v] outside root [%v, %v]", sp.StartMs, sp.EndMs, root.StartMs, root.EndMs)
		}
		if sp.EndMs > slowest {
			slowest = sp.EndMs
		}
	}
	if slowest > resp.LatencyMs+epsMs {
		t.Errorf("slowest shard leg ends at %v ms, past the %v ms end-to-end latency", slowest, resp.LatencyMs)
	}
	// The rebased ISN spans sit inside their shard leg's window (the residual
	// against the leg is network/encode time, which is nonnegative).
	for _, sp := range isnExecs {
		if sp.EndMs > root.EndMs+epsMs {
			t.Errorf("rebased isn-exec [%v, %v] overruns root end %v", sp.StartMs, sp.EndMs, root.EndMs)
		}
	}
}

// TestAggregatorTraceSampling checks the head-based sampler: at rate 1/2,
// exactly every other query is traced, and an unsampled query neither gets a
// trace ID nor emits spans.
func TestAggregatorTraceSampling(t *testing.T) {
	_, _, urls := testCluster(t, 1)
	agg := NewAggregator(urls, 5)
	agg.Spans = telemetry.NewSpanTracer(256)
	agg.TraceSample = 0.5

	traced := 0
	for i := 0; i < 4; i++ {
		resp, err := agg.Search(context.Background(), "canada")
		if err != nil {
			t.Fatal(err)
		}
		if resp.TraceID != "" {
			traced++
		}
	}
	if traced != 2 {
		t.Errorf("traced %d of 4 at rate 0.5", traced)
	}
	if views := agg.Spans.Traces(0); len(views) != 2 {
		t.Errorf("retained traces = %d, want 2", len(views))
	}

	// Rate 0 disables tracing entirely even with a tracer attached.
	agg2 := NewAggregator(urls, 5)
	agg2.Spans = telemetry.NewSpanTracer(16)
	if resp, err := agg2.Search(context.Background(), "canada"); err != nil || resp.TraceID != "" {
		t.Errorf("rate-0 query traced: %v %v", resp, err)
	}
}

// TestAggregatorStragglerSpan extends the straggler contract to the span
// waterfall: an abandoned shard leaves a straggler span naming the shard and
// the gap beyond the fan-out deadline, alongside the unchanged counter.
func TestAggregatorStragglerSpan(t *testing.T) {
	_, _, urls := testCluster(t, 2)
	slow := newSlowShard(t, 2*time.Second)

	met := NewMetrics(nil)
	agg := NewAggregator(append(urls, slow), 10)
	agg.Policy = Partial
	agg.Quorum = 2
	agg.Timeout = 500 * time.Millisecond
	agg.Instrument(met)
	agg.Spans = telemetry.NewSpanTracer(256)
	agg.TraceSample = 1

	resp, err := agg.Search(context.Background(), "canada")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stragglers != 1 {
		t.Fatalf("stragglers = %d", resp.Stragglers)
	}
	views := agg.Spans.Traces(0)
	if len(views) != 1 {
		t.Fatalf("traces = %d", len(views))
	}
	var straggler *telemetry.Span
	for i := range views[0].Spans {
		if views[0].Spans[i].Name == "straggler" {
			straggler = &views[0].Spans[i]
		}
	}
	if straggler == nil {
		t.Fatal("no straggler span in the stitched trace")
	}
	if got := straggler.Attr("shard"); got != 2 {
		t.Errorf("straggler shard attr = %v, want 2", got)
	}
	if straggler.Attr("gap_ms") < 0 {
		t.Errorf("straggler gap = %v", straggler.Attr("gap_ms"))
	}
	if straggler.EndMs != resp.LatencyMs {
		t.Errorf("straggler span ends at %v, aggregation returned at %v", straggler.EndMs, resp.LatencyMs)
	}
	var buf bytes.Buffer
	if err := met.Registry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if want := `gemini_agg_shard_stragglers_total{shard="2"} 1`; !bytes.Contains(buf.Bytes(), []byte(want)) {
		t.Errorf("metrics missing %q", want)
	}
}
