package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gemini/internal/corpus"
	"gemini/internal/index"
	"gemini/internal/predictor"
	"gemini/internal/search"
	"gemini/internal/telemetry"
)

// testCluster builds nShards ISNs over distinct corpus shards plus their
// httptest servers.
func testCluster(t testing.TB, nShards int) ([]*ISN, []*httptest.Server, []string) {
	t.Helper()
	var isns []*ISN
	var servers []*httptest.Server
	var urls []string
	for s := 0; s < nShards; s++ {
		spec := corpus.SmallSpec()
		spec.Seed = int64(s + 1)
		c := corpus.Generate(spec)
		eng := search.NewEngine(index.Build(c), search.DefaultK)
		cost := search.DefaultCostModel()
		isn := NewISN(s, c, eng, cost)
		isn.Start()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/search") {
				isn.ServeHTTP(w, r)
				return
			}
			http.NotFound(w, r)
		}))
		t.Cleanup(srv.Close)
		t.Cleanup(isn.Stop)
		isns = append(isns, isn)
		servers = append(servers, srv)
		urls = append(urls, srv.URL)
	}
	return isns, servers, urls
}

func postSearch(t *testing.T, url, query string) (*http.Response, ISNResponse) {
	t.Helper()
	body, _ := json.Marshal(SearchRequest{Query: query})
	resp, err := http.Post(url+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var r ISNResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
			t.Fatal(err)
		}
	}
	resp.Body.Close()
	return resp, r
}

func TestISNServesSearch(t *testing.T) {
	_, _, urls := testCluster(t, 1)
	resp, r := postSearch(t, urls[0], "united kingdom")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(r.Results) == 0 || len(r.Results) > search.DefaultK {
		t.Fatalf("results = %d", len(r.Results))
	}
	if r.ServiceMs <= 0 {
		t.Errorf("service ms = %v", r.ServiceMs)
	}
	for _, res := range r.Results {
		if res.Shard != 0 {
			t.Errorf("shard tag = %d", res.Shard)
		}
	}
}

func TestISNBadRequests(t *testing.T) {
	_, _, urls := testCluster(t, 1)
	aggSrv := httptest.NewServer(NewAggregator(urls, 5))
	defer aggSrv.Close()
	// A body is one JSON value and nothing after it, as json.Unmarshal reads
	// it, on both listeners.
	for _, body := range []string{"{not json", `{"query":"canada"}garbage`, `{"query":"canada"}{"query":"x"}`} {
		for name, url := range map[string]string{"isn": urls[0] + "/search", "aggregator": aggSrv.URL} {
			resp, err := http.Post(url, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s: body %q answered %d, want 400", name, body, resp.StatusCode)
			}
		}
	}
	resp2, _ := postSearch(t, urls[0], "zzzznotaword")
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown terms: status %d", resp2.StatusCode)
	}
}

func TestISNSingleWorkerSerializes(t *testing.T) {
	isns, _, urls := testCluster(t, 1)
	_ = isns
	// Fire concurrent requests; the single working thread must serve all.
	const n = 24
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(SearchRequest{Query: "canada"})
			resp, err := http.Post(urls[0]+"/search", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- nil
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestAggregatorMergesShards(t *testing.T) {
	_, _, urls := testCluster(t, 3)
	agg := NewAggregator(urls, 10)
	resp, err := agg.Search(context.Background(), "united kingdom")
	if err != nil {
		t.Fatal(err)
	}
	if resp.ShardsAsked != 3 || resp.ShardsResponded != 3 {
		t.Fatalf("shards %d/%d", resp.ShardsResponded, resp.ShardsAsked)
	}
	if len(resp.Results) != 10 {
		t.Fatalf("merged results = %d", len(resp.Results))
	}
	// Globally sorted by descending score.
	for i := 1; i < len(resp.Results); i++ {
		if resp.Results[i].Score > resp.Results[i-1].Score {
			t.Fatal("merged results not sorted")
		}
	}
	// Per-shard metadata present, timing only: the results are in the merge.
	if len(resp.PerShard) != 3 {
		t.Errorf("per-shard metadata = %d", len(resp.PerShard))
	}
	shards := map[int]bool{}
	for _, ps := range resp.PerShard {
		shards[ps.Shard] = true
		if ps.Results != nil {
			t.Errorf("shard %d: per_shard echoes %d results", ps.Shard, len(ps.Results))
		}
		if ps.ServiceMs <= 0 || ps.QueueWaitMs < 0 || ps.ExecWallMs < 0 || ps.QueueDepth < 1 {
			t.Errorf("shard %d: timing fields service %v queue %v exec %v depth %d",
				ps.Shard, ps.ServiceMs, ps.QueueWaitMs, ps.ExecWallMs, ps.QueueDepth)
		}
	}
	if len(shards) != 3 {
		t.Errorf("per-shard metadata names shards %v", shards)
	}
	var wire struct {
		PerShard []map[string]json.RawMessage `json:"per_shard"`
	}
	raw, err := resp.appendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &wire); err != nil {
		t.Fatal(err)
	}
	for _, ps := range wire.PerShard {
		if string(ps["results"]) != "null" || ps["service_ms"] == nil {
			t.Errorf("per_shard entry on the wire: %s", raw)
		}
	}
	if resp.LatencyMs <= 0 {
		t.Errorf("latency = %v", resp.LatencyMs)
	}
}

// raceEnabled is set under the race detector, whose sync.Pool drops a
// random share of the items put back.
var raceEnabled bool

// TestAggregatorSearchAllocs pins what one Search over two loopback shards
// allocates: the aggregator, both legs on its own connections and both ISNs
// behind net/http's server, all in this process. It measured 72 on go1.24
// (183 with the legs on net/http's Transport, 275 before the legs went
// straight to the Transport and the envelopes got their own codecs).
func TestAggregatorSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	_, _, urls := testCluster(t, 2)
	agg := NewAggregator(urls, 10)
	const pin = 80
	if got := testing.AllocsPerRun(100, func() {
		if _, err := agg.Search(context.Background(), "united kingdom"); err != nil {
			t.Fatal(err)
		}
	}); got > pin {
		t.Errorf("Search allocates %v times, pinned at %d", got, pin)
	}
}

func TestAggregatorHTTPEndpoint(t *testing.T) {
	_, _, urls := testCluster(t, 2)
	agg := NewAggregator(urls, 5)
	srv := httptest.NewServer(agg)
	defer srv.Close()
	body, _ := json.Marshal(SearchRequest{Query: "canada"})
	resp, err := http.Post(srv.URL, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var ar AggResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	if len(ar.Results) == 0 || len(ar.Results) > 5 {
		t.Errorf("results = %d", len(ar.Results))
	}
}

func TestAggregatorPartialIgnoresStragglers(t *testing.T) {
	_, _, urls := testCluster(t, 2)
	// A third "shard" that never answers in time.
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Second)
	}))
	defer slow.Close()

	agg := NewAggregator(append(urls, slow.URL), 10)
	agg.Policy = Partial
	agg.Quorum = 2
	agg.Timeout = 500 * time.Millisecond

	start := time.Now()
	resp, err := agg.Search(context.Background(), "canada")
	if err != nil {
		t.Fatal(err)
	}
	if resp.ShardsResponded != 2 {
		t.Fatalf("responded = %d, want 2 (straggler ignored)", resp.ShardsResponded)
	}
	if elapsed := time.Since(start); elapsed > 1500*time.Millisecond {
		t.Errorf("partial aggregation waited %v for the straggler", elapsed)
	}
}

// TestAggregatorStragglerCounted pins the partial-aggregation telemetry
// contract: a shard still in flight at the cutoff is dropped — counted in
// the per-shard straggler counter, not as an error and not as a violated
// aggregation.
func TestAggregatorStragglerCounted(t *testing.T) {
	_, _, urls := testCluster(t, 2)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Second)
	}))
	defer slow.Close()

	met := NewMetrics(nil)
	agg := NewAggregator(append(urls, slow.URL), 10)
	agg.Policy = Partial
	agg.Quorum = 2
	agg.Timeout = 500 * time.Millisecond
	agg.BudgetMs = 10_000 // wall time in tests is noisy; keep the budget slack
	agg.Instrument(met)
	tr := telemetry.NewTracer(16)
	agg.Tracer = tr

	resp, err := agg.Search(context.Background(), "canada")
	if err != nil {
		t.Fatal(err)
	}
	if resp.ShardsResponded != 2 {
		t.Fatalf("responded = %d, want 2", resp.ShardsResponded)
	}
	if resp.Stragglers != 1 || resp.ShardErrors != 0 {
		t.Fatalf("stragglers/errors = %d/%d, want 1/0", resp.Stragglers, resp.ShardErrors)
	}

	var buf bytes.Buffer
	if err := met.Registry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`gemini_agg_shard_stragglers_total{shard="2"} 1`,
		`gemini_agg_shard_stragglers_total{shard="0"} 0`, // pre-registered at zero
		`gemini_agg_shard_errors_total{shard="2"} 0`,     // dropped, not errored
		`gemini_agg_partial_aggregations_total 1`,
		`gemini_agg_requests_total 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}

	ds := tr.Ring().Snapshot(0)
	if len(ds) != 1 {
		t.Fatalf("decisions = %d, want 1", len(ds))
	}
	if ds[0].Violated {
		t.Error("straggler-dropped aggregation marked violated")
	}
	if ds[0].QueueDepth != 2 {
		t.Errorf("decision shards responded = %d, want 2", ds[0].QueueDepth)
	}
}

// TestISNObservability checks the shard-side instruments and decision trace
// of the live path: each record carries what the ISN measured (the reply's
// queue wait and execution wall time as its phases) and no plan, frequency
// or energy; the prediction audit; and the Prometheus families the CI smoke
// job greps for, without the modeled-DVFS ones.
func TestISNObservability(t *testing.T) {
	spec := corpus.SmallSpec()
	c := corpus.Generate(spec)
	eng := search.NewEngine(index.Build(c), search.DefaultK)
	isn := NewISN(0, c, eng, search.DefaultCostModel())
	isn.Service = stubService{ms: 7.5}
	isn.ErrPred = stubError{ms: 1.25}
	met := NewMetrics(nil)
	isn.Instrument(met)
	tr := telemetry.NewTracer(32)
	isn.Tracer = tr
	isn.Start()
	t.Cleanup(isn.Stop)
	srv := httptest.NewServer(isn)
	t.Cleanup(srv.Close)

	const reqs = 5
	var replies []ISNResponse
	for i := 0; i < reqs; i++ {
		resp, r := postSearchTo(t, srv.URL, "canada")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		replies = append(replies, r)
	}

	if got := tr.Emitted(); got != reqs {
		t.Fatalf("decisions = %d, want %d", got, reqs)
	}
	for i, d := range tr.Ring().Snapshot(0) {
		r := replies[i] // the requests ran one after another
		if d.RequestID != i+1 || d.Policy != "isn-live" {
			t.Fatalf("decision %d: request %d policy %q", i, d.RequestID, d.Policy)
		}
		if d.PredictedMs != 7.5 || d.PredErrMs != 1.25 || d.ActualMs != r.ServiceMs || d.ActualMs <= 0 {
			t.Fatalf("decision %d: predicted %v/%v actual %v, reply's service time %v", i, d.PredictedMs, d.PredErrMs, d.ActualMs, r.ServiceMs)
		}
		if d.ServiceMs != r.ExecWallMs || math.Abs(d.StartMs-d.ArrivalMs-r.QueueWaitMs) > 0.001 || d.FinishMs != d.ArrivalMs+d.LatencyMs {
			t.Fatalf("decision %d: start %v service %v finish %v latency %v from arrival %v; reply waited %v and ran %v",
				i, d.StartMs, d.ServiceMs, d.FinishMs, d.LatencyMs, d.ArrivalMs, r.QueueWaitMs, r.ExecWallMs)
		}
		if d.InitialFreqGHz != 0 || d.BoostFreqGHz != 0 || d.BoostAtMs != 0 || d.StartFreqGHz != 0 || d.Transitions != 0 || d.EnergyMJ != 0 {
			t.Fatalf("decision %d carries a modeled plan or energy: %+v", i, d)
		}
	}
	q := tr.Quality()
	if q.N != reqs {
		t.Errorf("quality audit n = %d, want %d", q.N, reqs)
	}

	var buf bytes.Buffer
	if err := met.Registry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`gemini_isn_requests_total{shard="0"} 5`,
		`gemini_isn_request_latency_ms_count{shard="0"} 5`,
		`gemini_isn_service_time_ms_count{shard="0"} 5`,
		`gemini_isn_queue_depth{shard="0"}`,
		`gemini_isn_predictions_total{shard="0"} 5`,
		`gemini_isn_predict_abs_err_ms_count{shard="0"} 5`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
	for _, gone := range []string{"gemini_isn_energy_mj", "gemini_isn_freq_transitions_total"} {
		if strings.Contains(text, gone) {
			t.Errorf("metrics still expose %s\n%s", gone, text)
		}
	}
}

// movingAvgISN is an ISN with a service predictor and Gemini-α's moving-
// average error estimator, served over loopback.
func movingAvgISN(t *testing.T) (*ISN, string) {
	t.Helper()
	c := corpus.Generate(corpus.SmallSpec())
	isn := NewISN(0, c, search.NewEngine(index.Build(c), search.DefaultK), search.DefaultCostModel())
	isn.Service, isn.ErrPred = stubService{ms: 1}, predictor.NewMovingAvgError(60)
	isn.Start()
	t.Cleanup(isn.Stop)
	srv := httptest.NewServer(isn)
	t.Cleanup(srv.Close)
	return isn, srv.URL
}

// TestMovingAvgErrorConcurrentClients drives an instrumented ISN's
// moving-average estimator from four clients at once; under -race (the CI
// server race step) it fails if anything but the working thread touches the
// estimator.
func TestMovingAvgErrorConcurrentClients(t *testing.T) {
	isn, url := movingAvgISN(t)
	isn.Instrument(NewMetrics(nil))
	isn.Tracer = telemetry.NewTracer(64)
	const clients, posts = 4, 8
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range posts {
				body, _ := json.Marshal(SearchRequest{Query: "canada"})
				resp, err := http.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d", resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()
	if got := isn.Tracer.Emitted(); got != clients*posts {
		t.Fatalf("decisions = %d, want %d", got, clients*posts)
	}
}

// TestMovingAvgErrorAdaptsWithoutTelemetry checks that E* follows the live
// stream on an ISN with no tracer and no metrics: the first reply's estimate
// is the empty window's 0, and each later one carries the errors before it.
func TestMovingAvgErrorAdaptsWithoutTelemetry(t *testing.T) {
	_, url := movingAvgISN(t)
	for i := range 3 {
		resp, r := postSearchTo(t, url, "canada")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if moved := r.PredErrMs > 0; moved != (i > 0) || r.PredictedMs != 1 {
			t.Fatalf("reply %d: E* = %v (S* %v, service %v); the estimator has seen %d errors", i, r.PredErrMs, r.PredictedMs, r.ServiceMs, i)
		}
	}
}

func TestAggregatorTimeoutCutsOff(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Second)
	}))
	defer slow.Close()
	_, _, urls := testCluster(t, 1)

	agg := NewAggregator([]string{urls[0], slow.URL}, 10)
	agg.Policy = Partial
	agg.Quorum = 2 // wants both, but the timeout fires first
	agg.Timeout = 300 * time.Millisecond
	resp, err := agg.Search(context.Background(), "canada")
	if err != nil {
		t.Fatal(err)
	}
	if resp.ShardsResponded != 1 {
		t.Errorf("responded = %d, want 1", resp.ShardsResponded)
	}
}

func TestAggregatorAllShardsDown(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer dead.Close()
	agg := NewAggregator([]string{dead.URL}, 10)
	if _, err := agg.Search(context.Background(), "canada"); err == nil {
		t.Error("dead shard produced a result")
	}
	empty := NewAggregator(nil, 10)
	if _, err := empty.Search(context.Background(), "canada"); err == nil {
		t.Error("empty shard list accepted")
	}
}

func TestAggregatorContextCancel(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Second)
	}))
	defer slow.Close()
	agg := NewAggregator([]string{slow.URL}, 10)
	agg.Policy = Partial
	agg.Quorum = 1
	agg.Timeout = 3 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if _, err := agg.Search(ctx, "canada"); err == nil {
		t.Error("cancelled context produced a result")
	}
}

// TestAggregatorCancelsAbandonedLegs: once a partial aggregation returns,
// the legs it stopped waiting for are cancelled. The straggler's handler
// sees its request context end within a second, not at the client's 5 s
// timeout, and nothing the aggregation started is left running. The healthy
// shard answers only once the straggler's request is in its handler, so the
// aggregation always abandons a leg the shard is serving.
func TestAggregatorCancelsAbandonedLegs(t *testing.T) {
	serving := make(chan struct{})
	cancelled := make(chan time.Time, 1)
	release := make(chan struct{})
	blocked := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Reading the body to its end, as a shard decoding its query does,
		// is what lets the server notice the client hanging up.
		_, _ = io.Copy(io.Discard, r.Body)
		close(serving)
		select {
		case <-r.Context().Done():
			cancelled <- time.Now()
		case <-release: // the test is over; Close must not wait on this handler
		}
	}))
	defer blocked.Close()
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-serving:
			_ = json.NewEncoder(w).Encode(ISNResponse{})
		case <-release:
		}
	}))
	defer healthy.Close()
	defer close(release)
	agg := NewAggregator([]string{healthy.URL, blocked.URL}, 10)
	agg.Policy = Partial
	agg.Quorum = 1
	agg.Timeout = 3 * time.Second

	goroutines := runtime.NumGoroutine()
	resp, err := agg.Search(context.Background(), "canada")
	returned := time.Now()
	if err != nil {
		t.Fatal(err)
	}
	if resp.ShardsResponded != 1 || resp.Stragglers != 1 {
		t.Fatalf("responded %d stragglers %d, want 1 and 1", resp.ShardsResponded, resp.Stragglers)
	}
	select {
	case at := <-cancelled:
		if wait := at.Sub(returned); wait > time.Second {
			t.Errorf("the abandoned leg was cancelled %v after Search returned", wait)
		}
	case <-time.After(time.Second):
		t.Fatal("the abandoned leg's handler still runs 1s after Search returned")
	}
	agg.CloseIdleConnections()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running, %d before the aggregation", runtime.NumGoroutine(), goroutines)
		}
	}
}

// isnWithPredictors attaches the trained predictors so responses carry the
// S*/E* metadata Gemini's controller consumes.
func TestISNPredictorAnnotations(t *testing.T) {
	spec := corpus.SmallSpec()
	c := corpus.Generate(spec)
	eng := search.NewEngine(index.Build(c), search.DefaultK)
	cost := search.DefaultCostModel()
	isn := NewISN(0, c, eng, cost)

	// A stub predictor pair keeps the test fast and deterministic.
	isn.Service = stubService{ms: 7.5}
	isn.ErrPred = stubError{ms: 1.25}
	isn.Start()
	t.Cleanup(isn.Stop)
	srv := httptest.NewServer(isn)
	t.Cleanup(srv.Close)

	resp, r := postSearchTo(t, srv.URL, "canada")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if r.PredictedMs != 7.5 || r.PredErrMs != 1.25 {
		t.Errorf("predictions = %v/%v, want 7.5/1.25", r.PredictedMs, r.PredErrMs)
	}
}

type stubService struct{ ms float64 }

func (s stubService) PredictMs(search.FeatureVector) float64 { return s.ms }
func (s stubService) Name() string                           { return "stub" }
func (s stubService) OverheadUs() float64                    { return 1 }

type stubError struct{ ms float64 }

func (s stubError) PredictErrMs(search.FeatureVector) float64 { return s.ms }
func (s stubError) Name() string                              { return "stub-err" }
func (s stubError) OverheadUs() float64                       { return 1 }

// postSearchTo posts directly to a handler-rooted server URL (no /search
// suffix assumptions beyond the handler itself).
func postSearchTo(t *testing.T, url, query string) (*http.Response, ISNResponse) {
	t.Helper()
	body, _ := json.Marshal(SearchRequest{Query: query})
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var r ISNResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
			t.Fatal(err)
		}
	}
	resp.Body.Close()
	return resp, r
}

func TestISNResultKLimit(t *testing.T) {
	spec := corpus.SmallSpec()
	c := corpus.Generate(spec)
	eng := search.NewEngine(index.Build(c), search.DefaultK)
	isn := NewISN(0, c, eng, search.DefaultCostModel())
	isn.Start()
	t.Cleanup(isn.Stop)
	srv := httptest.NewServer(isn)
	t.Cleanup(srv.Close)

	body, _ := json.Marshal(SearchRequest{Query: "united", K: 3})
	resp, err := http.Post(srv.URL, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var r ISNResponse
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatal(err)
	}
	if len(r.Results) != 3 {
		t.Errorf("results = %d, want K=3", len(r.Results))
	}
}

// TestISNQueueFullShedsImmediately: with the queue full the handler answers
// 503 at once, undoes its admission count, burns SLO budget and leaves
// nothing running. The queue has one slot and the test stands in for the
// working thread, so the first request stays queued for as long as needed.
func TestISNQueueFullShedsImmediately(t *testing.T) {
	c := corpus.Generate(corpus.SmallSpec())
	eng := search.NewEngine(index.Build(c), search.DefaultK)
	isn := NewISN(0, c, eng, search.DefaultCostModel())
	isn.queue = make(chan isnTask, 1)
	isn.started.Do(func() {}) // the worker never runs
	isn.SLO = NewSLOBinding(telemetry.NewRegistry(), "isn-0", telemetry.SLOConfig{})
	sampler := isn.StartTimeline(time.Hour, 4) // sampled by hand below
	defer sampler.Stop()

	post := func() *httptest.ResponseRecorder {
		body, _ := json.Marshal(SearchRequest{Query: "canada"})
		w := httptest.NewRecorder()
		isn.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body)))
		return w
	}
	goroutines := runtime.NumGoroutine()
	first := make(chan int, 1)
	go func() { first <- post().Code }()
	for deadline := time.Now().Add(5 * time.Second); len(isn.queue) == 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("first request never reached the queue")
		}
	}

	before := sampleNow(sampler).QueueDepth // the queued request
	start := time.Now()
	w := post()
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Errorf("shed took %v, want < 100ms", took)
	}
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("second request: status %d, want 503", w.Code)
	}
	if row := sampleNow(sampler); row.QueueDepth != before || row.Drops != 1 {
		t.Errorf("after the shed: depth %v drops %d, want %v as before it and 1", row.QueueDepth, row.Drops, before)
	}
	if snap := isn.SLO.Snapshot(1); snap.Bad != 1 || snap.Good != 0 {
		t.Errorf("SLO binding counted good=%d bad=%d, want 0 and 1", snap.Good, snap.Bad)
	}

	task := <-isn.queue
	task.resp <- isn.execute(task)
	if code := <-first; code != http.StatusOK {
		t.Errorf("first request: status %d, want 200", code)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running, %d before the requests", runtime.NumGoroutine(), goroutines)
		}
	}
}

// TestISNStopAnswersQueuedRequests: Stop neither hangs the handlers it leaves
// behind nor panics when called twice. A request queued behind a working
// thread that never runs is answered 503 as soon as the ISN stops, with the
// admission count undone and the refusal counted as a drop and as burnt SLO
// budget; a request that arrives afterwards gets the same; nothing is left
// running.
func TestISNStopAnswersQueuedRequests(t *testing.T) {
	c := corpus.Generate(corpus.SmallSpec())
	eng := search.NewEngine(index.Build(c), search.DefaultK)
	isn := NewISN(0, c, eng, search.DefaultCostModel())
	isn.started.Do(func() {}) // the worker never runs
	isn.SLO = NewSLOBinding(telemetry.NewRegistry(), "isn-0", telemetry.SLOConfig{})
	sampler := isn.StartTimeline(time.Hour, 4) // sampled by hand below
	defer sampler.Stop()

	post := func() int {
		body, _ := json.Marshal(SearchRequest{Query: "canada"})
		w := httptest.NewRecorder()
		isn.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body)))
		return w.Code
	}
	goroutines := runtime.NumGoroutine()
	queued := make(chan int, 1)
	go func() { queued <- post() }()
	for deadline := time.Now().Add(5 * time.Second); len(isn.queue) == 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("the request never reached the queue")
		}
	}

	isn.Stop()
	select {
	case code := <-queued:
		if code != http.StatusServiceUnavailable {
			t.Errorf("queued request: status %d, want 503", code)
		}
	case <-time.After(100 * time.Millisecond):
		t.Fatal("queued request still waiting 100ms after Stop")
	}
	isn.Stop() // a second Stop is a no-op, not a close of a closed channel

	if code := post(); code != http.StatusServiceUnavailable {
		t.Errorf("request after Stop: status %d, want 503", code)
	}
	if row := sampleNow(sampler); row.QueueDepth != 0 || row.Drops != 2 {
		t.Errorf("after Stop: depth %v drops %d, want 0 and 2", row.QueueDepth, row.Drops)
	}
	if snap := isn.SLO.Snapshot(1); snap.Bad != 2 || snap.Good != 0 {
		t.Errorf("SLO binding counted good=%d bad=%d, want 0 and 2", snap.Good, snap.Bad)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running, %d before the requests", runtime.NumGoroutine(), goroutines)
		}
	}
}

// TestISNClientCancelWhileQueued: a request whose client goes away while it
// waits on the queue leaves the handler at once, counted as a drop and as
// burnt SLO budget, and the working thread then skips it. The ISN has no
// engine, so serving the task would panic. Nothing is left running.
func TestISNClientCancelWhileQueued(t *testing.T) {
	isn := NewISN(0, &corpus.Corpus{Vocab: []string{"canada"}}, nil, nil)
	isn.started.Do(func() {}) // the worker is held until the client has gone
	isn.SLO = NewSLOBinding(telemetry.NewRegistry(), "isn-0", telemetry.SLOConfig{})
	sampler := isn.StartTimeline(time.Hour, 4) // sampled by hand below
	defer sampler.Stop()
	left := make(chan time.Time, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		isn.ServeHTTP(w, r)
		left <- time.Now()
	}))
	defer srv.Close()
	defer isn.Stop() // first: a handler still waiting gets its 503, so Close does not hang
	client := &http.Client{Transport: &http.Transport{}}

	goroutines := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	sent := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL, strings.NewReader(`{"query":"canada"}`))
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		sent <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); len(isn.queue) == 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("the request never reached the queue")
		}
	}

	cancel()
	cancelled := time.Now()
	select {
	case at := <-left:
		if wait := at.Sub(cancelled); wait > 100*time.Millisecond {
			t.Errorf("the handler returned %v after its client went away", wait)
		}
	case <-time.After(100 * time.Millisecond):
		t.Fatal("the handler still waits 100ms after its client went away")
	}
	if err := <-sent; err == nil {
		t.Error("the cancelled request got a reply")
	}
	if row := sampleNow(sampler); row.QueueDepth != 0 || row.Drops != 1 {
		t.Errorf("after the cancel: depth %v drops %d, want 0 and 1", row.QueueDepth, row.Drops)
	}
	if snap := isn.SLO.Snapshot(1); snap.Bad != 1 || snap.Good != 0 {
		t.Errorf("SLO binding counted good=%d bad=%d, want 0 and 1", snap.Good, snap.Bad)
	}

	go isn.worker() // a nil Engine: the worker must skip the task, not serve it
	for deadline := time.Now().Add(5 * time.Second); len(isn.queue) > 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("the worker never took the task")
		}
	}
	isn.Stop()
	client.CloseIdleConnections()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running, %d before the request", runtime.NumGoroutine(), goroutines)
		}
	}
}

// TestSearchInputIsBounded: both listeners refuse a body over
// maxRequestBytes, and the largest query that fits costs a map lookup per
// word, not a scan of the vocabulary: 5 000 unknown words against a
// full-size (12 000-word) vocabulary are answered 400 well inside one query
// budget. The corpus is a literal with no documents; the request never
// reaches the engine.
func TestSearchInputIsBounded(t *testing.T) {
	vocab := make([]string, corpus.DefaultSpec().VocabSize)
	for i := range vocab {
		vocab[i] = "w" + strconv.Itoa(i)
	}
	isn := NewISN(0, &corpus.Corpus{Vocab: vocab}, nil, nil)
	defer isn.Stop()
	isnSrv := httptest.NewServer(isn)
	defer isnSrv.Close()
	aggSrv := httptest.NewServer(NewAggregator([]string{isnSrv.URL}, 5))
	defer aggSrv.Close()

	post := func(url, query string) (int, time.Duration) {
		body, _ := json.Marshal(SearchRequest{Query: query})
		start := time.Now()
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode, time.Since(start)
	}

	oversize := strings.Repeat("w1 ", maxRequestBytes/3+1)
	for name, url := range map[string]string{"isn": isnSrv.URL + "/search", "aggregator": aggSrv.URL} {
		if status, _ := post(url, oversize); status != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: %d-byte body answered %d, want 413", name, len(oversize), status)
		}
	}

	unknown := strings.Repeat("zzzz ", 5000)
	best := time.Hour
	for try := 0; try < 3; try++ { // the fastest of three: a bound on the work, not on the host's mood
		status, took := post(isnSrv.URL+"/search", unknown)
		if status != http.StatusBadRequest {
			t.Fatalf("5000 unknown words answered %d, want 400", status)
		}
		best = min(best, took)
	}
	if budget := DefaultBudgetMs * time.Millisecond; best > budget/2 {
		t.Errorf("5000 unknown words took %v, want well under the %v budget", best, budget)
	}
}
