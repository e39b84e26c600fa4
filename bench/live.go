package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gemini/internal/corpus"
	"gemini/internal/index"
	"gemini/internal/search"
	"gemini/internal/server"
	"gemini/internal/telemetry"
)

// shard is one ISN's corpus and engine, kept so replies can be checked
// against an in-process merge.
type shard struct {
	corpus *corpus.Corpus
	engine *search.Engine
}

// liveShards returns the two shards of live_search: the platform's corpus,
// and a second corpus of the same spec seeded seed+1. Built once per process.
func (b *bench) liveShards() []shard {
	if b.shards == nil {
		spec := b.p.Corpus.Spec
		spec.Seed = b.seed + 1
		c := corpus.Generate(spec)
		b.shards = []shard{
			{b.p.Corpus, b.p.Engine},
			{c, search.NewEngine(index.Build(c), b.p.Engine.K())},
		}
	}
	return b.shards
}

// stallCutoff is the aggregator's partial-aggregation cutoff in live_search.
// cmd/isnserver's default of 100 ms is shorter than the stalls a shared host
// hands a process: a stall that outlasts it makes the aggregator drop a shard,
// or answer 502 "no shard responded" when it drops both, and a run of a
// correct program fails. Two seconds keeps the same code path (a timer armed
// and stopped per request) and stays under the 5 s timeouts behind it.
const stallCutoff = 2 * time.Second

// cluster is an in-process live search cluster on loopback listeners, wired
// the way cmd/isnserver wires one by default (shared metrics registry,
// decision and span rings, SLO bindings, partial aggregation, trace sampling
// off) with the platform's NN predictors attached to every ISN. One setting
// differs: the partial-aggregation cutoff is stallCutoff, not isnserver's
// 100 ms.
type cluster struct {
	reg     *telemetry.Registry
	isns    []*server.ISN
	servers []*httptest.Server // the ISNs' listeners, then the aggregator's
	isnURLs []string
	aggURL  string
	aggHTTP *http.Transport
}

func (b *bench) startCluster(clients int) *cluster {
	p := b.p
	c := &cluster{reg: telemetry.NewRegistry()}
	met := server.NewMetrics(c.reg)
	sloCfg := telemetry.SLOConfig{DeadlineMs: p.Opt.BudgetMs, TargetPct: 99}
	for s, sh := range b.liveShards() {
		isn := server.NewISN(s, sh.corpus, sh.engine, p.Cost)
		isn.BudgetMs = p.Opt.BudgetMs
		isn.Service, isn.ErrPred = p.Classifier, p.ErrPred
		isn.Instrument(met)
		isn.Tracer = telemetry.NewTracer(512)
		isn.Spans = telemetry.NewSpanTracer(4096)
		isn.SLO = server.NewSLOBinding(c.reg, fmt.Sprintf("isn-%d", s), sloCfg)
		isn.Start()
		mux := http.NewServeMux()
		mux.Handle("/search", isn)
		srv := httptest.NewServer(mux) // binds 127.0.0.1:0
		c.isns = append(c.isns, isn)
		c.servers = append(c.servers, srv)
		c.isnURLs = append(c.isnURLs, srv.URL)
	}
	agg := server.NewAggregator(c.isnURLs, p.Engine.K())
	agg.Policy, agg.Quorum, agg.Timeout = server.Partial, len(c.isnURLs), stallCutoff
	agg.BudgetMs = p.Opt.BudgetMs
	agg.Instrument(met)
	agg.Tracer = telemetry.NewTracer(512)
	agg.Spans = telemetry.NewSpanTracer(4096)
	agg.SLO = server.NewSLOBinding(c.reg, "aggregator", sloCfg)
	// Every in-flight fan-out leg keeps its connection: without room for them
	// in the idle pool the aggregator would open and drop a socket per leg.
	c.aggHTTP = &http.Transport{MaxIdleConns: 2 * clients * len(c.isnURLs), MaxIdleConnsPerHost: 2 * clients}
	agg.Client = &http.Client{Timeout: 5 * time.Second, Transport: c.aggHTTP}
	mux := http.NewServeMux()
	mux.Handle("/search", agg)
	srv := httptest.NewServer(mux)
	c.servers = append(c.servers, srv)
	c.aggURL = srv.URL
	return c
}

// stop closes every listener (waiting for requests in flight), drops the
// aggregator's idle connections and ends the ISN workers.
func (c *cluster) stop() {
	for i := len(c.servers) - 1; i >= 0; i-- {
		c.servers[i].Close()
	}
	c.aggHTTP.CloseIdleConnections()
	for _, isn := range c.isns {
		isn.Stop()
	}
}

// liveSample is one reply kept for checking against the in-process merge.
type liveSample struct {
	idx     int // pool index of the query
	results []server.ShardResult
}

// tally is what one client goroutine saw in one segment.
type tally struct {
	good        int
	latMs       []float64
	stragglers  int
	shardErrors int
	samples     []liveSample
	problems    []string
}

// post sends one /search body and decodes the reply.
func post(client *http.Client, url string, body []byte, into any) error {
	resp, err := client.Post(url+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, into)
}

// runLive is live_search: GOMAXPROCS closed-loop clients, one keep-alive
// connection each, POST a fixed number of queries to the aggregator's HTTP
// handler. Closed loop because an aggregator's callers each wait for a reply.
func (b *bench) runLive(rec *recorder) *result {
	res := &result{unit: "good replies"}
	clients := runtime.GOMAXPROCS(0)
	budgetMs := b.p.Opt.BudgetMs
	pool := b.queries()
	bodies := make([][]byte, len(pool))
	for i, q := range pool {
		bodies[i], _ = json.Marshal(server.SearchRequest{Query: q.Text}) // a struct of strings cannot fail to marshal
	}
	cl := b.startCluster(clients)
	defer cl.stop()
	conns := make([]*http.Transport, clients)
	for i := range conns {
		conns[i] = &http.Transport{MaxIdleConnsPerHost: 1}
		defer conns[i].CloseIdleConnections()
	}

	// drive sends requests first..first+n-1, shared among the clients.
	drive := func(first, n int, rec *recorder) []tally {
		tallies := make([]tally, clients)
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := range tallies {
			wg.Add(1)
			go func(t *tally, client *http.Client) {
				defer wg.Done()
				for {
					k := int(next.Add(1)) - 1
					if k >= n {
						return
					}
					op := first + k
					idx := op % len(pool)
					var reply server.AggResponse
					t0 := time.Now()
					err := post(client, cl.aggURL, bodies[idx], &reply)
					took := time.Since(t0)
					ms := float64(took.Nanoseconds()) / 1e6
					t.latMs = append(t.latMs, ms)
					if err != nil {
						t.problems = append(t.problems, fmt.Sprintf("request %d %q: %v", op, pool[idx].Text, err))
						continue
					}
					t.stragglers += reply.Stragglers
					t.shardErrors += reply.ShardErrors
					if reply.ShardErrors > 0 {
						t.problems = append(t.problems, fmt.Sprintf("request %d %q: %d shard errors", op, pool[idx].Text, reply.ShardErrors))
					}
					// A reply the cutoff left partial is the aggregator working
					// as designed: it misses goodput, it is not a wrong output,
					// and it cannot equal the full merge.
					if reply.ShardsResponded == reply.ShardsAsked {
						if ms <= budgetMs {
							t.good++
						}
						if idx%keepEvery == 0 {
							t.samples = append(t.samples, liveSample{idx, reply.Results})
						}
					}
					if rec != nil {
						recordReply(rec, op, took, &reply)
					}
				}
			}(&tallies[c], &http.Client{Transport: conns[c], Timeout: 10 * time.Second})
		}
		wg.Wait()
		return tallies
	}

	n := b.size.requests
	drive(0, max(clients, n/10), nil)
	var samples []liveSample
	res.segs = measure(segments, func(i int) (float64, []float64) {
		good, lat := 0, make([]float64, 0, n)
		for _, t := range drive(i*n, n, rec) {
			good += t.good
			lat = append(lat, t.latMs...)
			res.stragglers += t.stragglers
			res.shardErrors += t.shardErrors
			samples = append(samples, t.samples...)
			for _, p := range t.problems {
				res.fail("%s", p)
			}
		}
		return float64(good), lat
	})
	res.attempted = segments * n

	for _, s := range samples {
		want := b.mergedTopK(pool[s.idx].Text)
		if !sameResults(s.results, want) {
			res.fail("query %q: reply %v, in-process merge %v", pool[s.idx].Text, s.results, want)
		}
	}
	return res
}

// recordReply turns a reply's own timing fields into spans under the client's
// measured round trip. The reply carries durations, not instants, so each
// child is centred in its parent: self times (parent minus children) are
// exact, offsets are nominal.
func recordReply(rec *recorder, op int, took time.Duration, reply *server.AggResponse) {
	end := rec.now()
	start := end - took.Nanoseconds()
	root := rec.add("client.post", op, -1, start, end)
	aggNs := int64(reply.LatencyMs * 1e6)
	aggStart := start + (took.Nanoseconds()-aggNs)/2
	agg := rec.add("server.aggregate", op, root, aggStart, aggStart+aggNs)
	for _, sh := range reply.PerShard {
		queueNs, execNs := int64(sh.QueueWaitMs*1e6), int64(sh.ExecWallMs*1e6)
		isnStart := aggStart + (aggNs-queueNs-execNs)/2
		isn := rec.add("server.isn", op, agg, isnStart, isnStart+queueNs+execNs)
		rec.add("isn.queue", op, isn, isnStart, isnStart+queueNs)
		rec.add("isn.exec", op, isn, isnStart+queueNs, isnStart+queueNs+execNs)
	}
}

// mergedTopK is what the aggregator must answer for text: every shard's
// top-K merged by (score descending, shard, doc) and cut to K.
func (b *bench) mergedTopK(text string) []server.ShardResult {
	var all []server.ShardResult
	for s, sh := range b.liveShards() {
		q, ok := corpus.ParseQuery(sh.corpus, text)
		if !ok {
			continue
		}
		for _, r := range sh.engine.Search(q).Results {
			all = append(all, server.ShardResult{Shard: s, Doc: r.Doc, Score: r.Score})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, c := all[i], all[j]
		switch {
		case a.Score > c.Score:
			return true
		case a.Score < c.Score:
			return false
		case a.Shard != c.Shard:
			return a.Shard < c.Shard
		}
		return a.Doc < c.Doc
	})
	if k := b.p.Engine.K(); len(all) > k {
		all = all[:k]
	}
	return all
}

func sameResults(a, b []server.ShardResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Shard != b[i].Shard || a[i].Doc != b[i].Doc || math.Float32bits(a[i].Score) != math.Float32bits(b[i].Score) {
			return false
		}
	}
	return true
}

// liveLayers fills the per-layer rows of a traced live_search run: the reply
// envelope's own timings as recorded by recordReply, then stand-alone probes
// of one ISN and of the JSON codec on a fresh cluster.
func (b *bench) liveLayers(plain, traced *result, rec *recorder) {
	l := b.layer
	l["server.agg_ms_p50"] = percentile(rec.durationsNs("server.aggregate"), 50) / 1e6
	l["server.client_edge_us_p50"] = percentile(rec.selfNs("client.post"), 50) / 1e3
	l["server.fanout_us_p50"] = percentile(rec.selfNs("server.aggregate"), 50) / 1e3
	queue := rec.durationsNs("isn.queue")
	l["server.isn_queue_us_p50"] = percentile(queue, 50) / 1e3
	l["server.isn_queue_us_p99"] = percentile(queue, 99) / 1e3
	l["server.isn_exec_us_p50"] = percentile(rec.durationsNs("isn.exec"), 50) / 1e3
	l["server.client_ms_p99"] = percentile(rec.durationsNs("client.post"), 99) / 1e6
	l["server.stragglers"] = float64(traced.stragglers)
	l["server.shard_errors"] = float64(traced.shardErrors)
	l["server.allocs_per_query"] = allocsPerOp(plain.segs)

	pool := b.queries()
	const probes = 2000
	cl := b.startCluster(1)
	defer cl.stop()
	body := func(i int) []byte {
		raw, _ := json.Marshal(server.SearchRequest{Query: pool[i%len(pool)].Text, K: b.p.Engine.K()}) // cannot fail, as above
		return raw
	}
	handler := make([]float64, probes)
	for i := range handler {
		req := httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body(i)))
		w := httptest.NewRecorder()
		t0 := time.Now()
		cl.isns[0].ServeHTTP(w, req)
		handler[i] = float64(time.Since(t0).Nanoseconds())
	}
	l["server.isn_handler_us_p50"] = percentile(handler, 50) / 1e3

	conn := &http.Transport{MaxIdleConnsPerHost: 1}
	defer conn.CloseIdleConnections()
	client := &http.Client{Transport: conn, Timeout: 10 * time.Second}
	direct := make([]float64, 0, probes)
	var last server.ISNResponse
	for i := 0; i < probes; i++ {
		t0 := time.Now()
		if err := post(client, cl.isnURLs[0], body(i), &last); err == nil {
			direct = append(direct, float64(time.Since(t0).Nanoseconds()))
		}
	}
	l["server.isn_direct_ms_p50"] = percentile(direct, 50) / 1e6

	var raw []byte
	l["server.json_encode_ns"] = timeCalls(probes, func(int) { raw, _ = json.Marshal(&last) })
	var back server.ISNResponse
	l["server.json_decode_ns"] = timeCalls(probes, func(int) { _ = json.Unmarshal(raw, &back) }) // raw is Marshal's own output
	l["telemetry.prometheus_write_us"] = timeCalls(200, func(int) { _ = cl.reg.WritePrometheus(io.Discard) }) / 1e3
}
