// Command isnserver runs the paper's partition-aggregate search architecture
// (Fig. 1a) as real HTTP services on localhost: N Index Serving Nodes (each
// the Fig. 9 single-working-thread structure) plus an aggregator endpoint
// that broadcasts queries and merges the top-K.
//
// Usage:
//
//	isnserver -shards 4 -port 8080
//	curl -s -X POST localhost:8080/search -d '{"query":"united kingdom"}'
//
// Each ISN also listens on port+1+shard for direct inspection:
//
//	curl -s -X POST localhost:8081/search -d '{"query":"canada"}'
//
// Every listener exposes the shared observability surface:
//
//	curl -s localhost:8080/metrics          # Prometheus text, all shards
//	curl -s localhost:8080/debug/decisions  # recent aggregations as JSON
//	curl -s localhost:8081/debug/decisions  # ISN-0's per-query DVFS decisions
//	curl -s localhost:8080/debug/traces     # stitched query waterfalls (-trace-sample)
//	curl -s localhost:8080/debug/pprof/     # live profiling (also per ISN)
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"time"

	"gemini/internal/corpus"
	"gemini/internal/index"
	"gemini/internal/predictor"
	"gemini/internal/search"
	"gemini/internal/server"
	"gemini/internal/telemetry"
)

func main() {
	var (
		shards  = flag.Int("shards", 4, "number of ISN shards")
		port    = flag.Int("port", 8080, "aggregator port (ISNs use port+1..port+shards)")
		k       = flag.Int("k", 10, "result-set size")
		partial = flag.Bool("partial", true, "partial aggregation: ignore stragglers past -timeout")
		timeout = flag.Duration("timeout", 100*time.Millisecond, "straggler cutoff for -partial")
		predict = flag.Bool("predict", false, "train a linear service-time predictor per shard (S*/E* annotations)")
		budget  = flag.Float64("budget", server.DefaultBudgetMs, "per-query latency budget in ms (DVFS plans, deadline slack)")
		ringCap = flag.Int("decision-ring", 512, "decisions retained per /debug/decisions endpoint")
		sample  = flag.Float64("trace-sample", 0, "head-based trace sampling rate in [0,1]: fraction of queries stitched into /debug/traces waterfalls (0 = off)")
		spanCap = flag.Int("span-ring", 4096, "spans retained per /debug/traces endpoint")
		tlIv    = flag.Duration("timeline-interval", time.Second, "wall-clock sample interval for the /debug/timeline series (0 disables the samplers)")
		tlCap   = flag.Int("timeline-ring", 600, "samples retained per /debug/timeline endpoint")
		sloPct  = flag.Float64("slo-target", 99, "SLO target percentile for the /debug/slo burn trackers (deadline = -budget)")
	)
	flag.Parse()

	reg := telemetry.NewRegistry()
	telemetry.RegisterBuildInfo(reg, "isnserver")
	met := server.NewMetrics(reg)
	// One SLO burn tracker per listener, created up front so the shared
	// /metrics handler can refresh every binding's gauges at scrape time
	// without racing listener startup.
	sloCfg := telemetry.SLOConfig{DeadlineMs: *budget, TargetPct: *sloPct}
	sloISN := make([]*server.SLOBinding, *shards)
	for s := range sloISN {
		sloISN[s] = server.NewSLOBinding(reg, fmt.Sprintf("isn-%d", s), sloCfg)
	}
	sloAgg := server.NewSLOBinding(reg, "aggregator", sloCfg)
	metricsHandler := server.MetricsWithSLO(reg, append(append([]*server.SLOBinding{}, sloISN...), sloAgg)...)

	var urls []string
	for s := 0; s < *shards; s++ {
		spec := corpus.SmallSpec()
		spec.Seed = int64(s + 1)
		spec.NumDocs = 800 + 400*s
		c := corpus.Generate(spec)
		eng := search.NewEngine(index.Build(c), *k)
		isn := server.NewISN(s, c, eng, search.DefaultCostModel())
		isn.BudgetMs = *budget
		if *predict {
			// Label a query sample on this shard and fit the linear
			// classifier (Fig. 7's cheap baseline — fast enough to train at
			// startup) plus the Gemini-alpha moving-average error bound.
			b := &predictor.Builder{
				Engine:    eng,
				Extractor: isn.Extractor,
				Cost:      isn.Cost,
				Jitter:    search.DefaultJitter(),
			}
			gen := corpus.NewQueryGen(c, spec.Seed+100)
			ds := b.Build(gen.Batch(400), 0.2, spec.Seed)
			isn.Service = predictor.TrainLinear(ds.Train, predictor.DefaultConfig())
			isn.ErrPred = predictor.NewMovingAvgError(60)
			log.Printf("ISN-%d: trained %s on %d samples", s, isn.Service.Name(), len(ds.Train))
		}
		isn.Instrument(met)
		tracer := telemetry.NewTracer(*ringCap)
		isn.Tracer = tracer
		spans := telemetry.NewSpanTracer(*spanCap)
		isn.Spans = spans
		isn.SLO = sloISN[s]
		isn.Start()

		mux := http.NewServeMux()
		mux.Handle("/search", isn)
		mux.Handle("/metrics", metricsHandler)
		mux.Handle("/debug/decisions", telemetry.DecisionsHandler(tracer, 100))
		mux.Handle("/debug/traces", telemetry.TracesHandler(spans, 20))
		mux.Handle("/debug/slo", sloISN[s].Handler(120))
		if *tlIv > 0 {
			mux.Handle("/debug/timeline", isn.StartTimeline(*tlIv, *tlCap).Handler(60))
		}
		registerPprof(mux)
		addr := fmt.Sprintf("127.0.0.1:%d", *port+1+s)
		go func(a string, m *http.ServeMux) {
			log.Fatal(listen(a, m))
		}(addr, mux)
		urls = append(urls, "http://"+addr)
		log.Printf("isn-%d: listen=%s docs=%d predictor=%s budget=%.1fms", s, addr, spec.NumDocs, predictorMode(*predict), *budget)
	}

	agg := server.NewAggregator(urls, *k)
	if *partial {
		agg.Policy = server.Partial
		agg.Quorum = *shards
		agg.Timeout = *timeout
	}
	agg.BudgetMs = *budget
	agg.Instrument(met)
	aggTracer := telemetry.NewTracer(*ringCap)
	agg.Tracer = aggTracer
	aggSpans := telemetry.NewSpanTracer(*spanCap)
	agg.Spans = aggSpans
	agg.TraceSample = *sample
	agg.SLO = sloAgg

	mux := http.NewServeMux()
	mux.Handle("/search", agg)
	mux.Handle("/metrics", metricsHandler)
	mux.Handle("/debug/decisions", telemetry.DecisionsHandler(aggTracer, 100))
	mux.Handle("/debug/traces", telemetry.TracesHandler(aggSpans, 20))
	mux.Handle("/debug/slo", sloAgg.Handler(120))
	if *tlIv > 0 {
		mux.Handle("/debug/timeline", agg.StartTimeline(*tlIv, *tlCap).Handler(60))
	}
	registerPprof(mux)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	addr := fmt.Sprintf("127.0.0.1:%d", *port)
	policy := "wait-all"
	if *partial {
		policy = "partial"
	}
	log.Printf("aggregator: listen=%s shards=%d policy=%s predictor=%s trace-sample=%.2f budget=%.1fms", addr, *shards, policy, predictorMode(*predict), *sample, *budget)
	log.Fatal(listen(addr, mux))
}

// A client gets readHeaderTimeout to send its request line and headers, and
// a keep-alive connection is closed after idleTimeout without a request, so
// a stalled or abandoned connection cannot hold a listener's goroutine
// forever. Neither bounds a handler: /debug/pprof/profile streams for its
// whole ?seconds= window.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// listen serves h on addr until the listener fails.
func listen(addr string, h http.Handler) error {
	srv := &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	return srv.ListenAndServe()
}

// predictorMode renders the -predict flag for the startup summary lines.
func predictorMode(on bool) string {
	if on {
		return "linear+movavg"
	}
	return "none"
}

// registerPprof mounts the net/http/pprof handlers on a non-default mux
// (the blank import only touches http.DefaultServeMux, which none of the
// listeners use).
func registerPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
