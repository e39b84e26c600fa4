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
// A flag value the servers cannot run with (no shards, a port range past
// 65535, a non-positive timeout or budget, a sampling rate outside [0, 1], an
// empty ring, a negative timeline interval, an SLO target outside (0, 100))
// exits with status 2 and a message before anything is built.
//
// Every listener exposes the shared observability surface:
//
//	curl -s localhost:8080/metrics          # Prometheus text, all shards
//	curl -s localhost:8080/debug/decisions  # recent aggregations as JSON
//	curl -s localhost:8081/debug/decisions  # ISN-0's predictions and measured phases
//	curl -s localhost:8080/debug/traces     # stitched query waterfalls (-trace-sample)
//	curl -s localhost:8080/debug/pprof/     # live profiling (also per ISN)
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"gemini/internal/corpus"
	"gemini/internal/index"
	"gemini/internal/predictor"
	"gemini/internal/search"
	"gemini/internal/server"
	"gemini/internal/telemetry"
)

// config is the command line.
type config struct {
	shards, port, k  int
	partial, predict bool
	timeout          time.Duration
	budget           float64
	ringCap          int
	sample           float64
	spanCap          int
	tlIv             time.Duration
	tlCap            int
	sloPct           float64
}

// bindFlags registers the command's flags on fs and returns the config they
// fill in.
func bindFlags(fs *flag.FlagSet) *config {
	c := &config{}
	fs.IntVar(&c.shards, "shards", 4, "number of ISN shards")
	fs.IntVar(&c.port, "port", 8080, "aggregator port (ISNs use port+1..port+shards)")
	fs.IntVar(&c.k, "k", 10, "result-set size")
	fs.BoolVar(&c.partial, "partial", true, "partial aggregation: ignore stragglers past -timeout")
	fs.DurationVar(&c.timeout, "timeout", 100*time.Millisecond, "straggler cutoff for -partial")
	fs.BoolVar(&c.predict, "predict", false, "train a linear service-time predictor per shard (S*/E* annotations)")
	fs.Float64Var(&c.budget, "budget", server.DefaultBudgetMs, "per-query latency budget in ms (deadline slack, SLO deadline)")
	fs.IntVar(&c.ringCap, "decision-ring", 512, "decisions retained per /debug/decisions endpoint")
	fs.Float64Var(&c.sample, "trace-sample", 0, "head-based trace sampling rate in [0,1]: fraction of queries stitched into /debug/traces waterfalls (0 = off)")
	fs.IntVar(&c.spanCap, "span-ring", 4096, "spans retained per /debug/traces endpoint")
	fs.DurationVar(&c.tlIv, "timeline-interval", time.Second, "wall-clock sample interval for the /debug/timeline series (0 disables the samplers)")
	fs.IntVar(&c.tlCap, "timeline-ring", 600, "samples retained per /debug/timeline endpoint")
	fs.Float64Var(&c.sloPct, "slo-target", 99, "SLO target percentile for the /debug/slo burn trackers (deadline = -budget)")
	return c
}

// validate returns the first flag value the servers cannot run with.
func (c *config) validate() error {
	switch {
	case c.shards < 1:
		return fmt.Errorf("-shards %d: need at least one shard", c.shards)
	case c.port < 1 || c.port+c.shards > 65535:
		return fmt.Errorf("-port %d with -shards %d: ports %d..%d must lie in 1..65535", c.port, c.shards, c.port, c.port+c.shards)
	case c.timeout <= 0:
		return fmt.Errorf("-timeout %v: must be positive", c.timeout)
	case !(c.budget > 0) || math.IsInf(c.budget, 1):
		return fmt.Errorf("-budget %v: must be finite and positive", c.budget)
	case !(c.sample >= 0 && c.sample <= 1):
		return fmt.Errorf("-trace-sample %v: must lie in [0, 1]", c.sample)
	case c.ringCap < 1 || c.spanCap < 1 || c.tlCap < 1:
		return fmt.Errorf("-decision-ring %d, -span-ring %d, -timeline-ring %d: each must be at least 1", c.ringCap, c.spanCap, c.tlCap)
	case c.tlIv < 0:
		return fmt.Errorf("-timeline-interval %v: must not be negative", c.tlIv)
	case !(c.sloPct > 0 && c.sloPct < 100):
		return fmt.Errorf("-slo-target %v: must lie in (0, 100)", c.sloPct)
	}
	return nil
}

func main() {
	cfg := bindFlags(flag.CommandLine)
	flag.Parse()
	if err := cfg.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "isnserver:", err)
		os.Exit(2)
	}

	reg := telemetry.NewRegistry()
	telemetry.RegisterBuildInfo(reg, "isnserver")
	met := server.NewMetrics(reg)
	// One SLO burn tracker per listener, created up front so the shared
	// /metrics handler can refresh every binding's gauges at scrape time
	// without racing listener startup.
	sloCfg := telemetry.SLOConfig{DeadlineMs: cfg.budget, TargetPct: cfg.sloPct}
	sloISN := make([]*server.SLOBinding, cfg.shards)
	for s := range sloISN {
		sloISN[s] = server.NewSLOBinding(reg, fmt.Sprintf("isn-%d", s), sloCfg)
	}
	sloAgg := server.NewSLOBinding(reg, "aggregator", sloCfg)
	metricsHandler := server.MetricsWithSLO(reg, append(append([]*server.SLOBinding{}, sloISN...), sloAgg)...)

	var urls []string
	for s := 0; s < cfg.shards; s++ {
		spec := corpus.SmallSpec()
		spec.Seed = int64(s + 1)
		spec.NumDocs = 800 + 400*s
		c := corpus.Generate(spec)
		eng := search.NewEngine(index.Build(c), cfg.k)
		isn := server.NewISN(s, c, eng, search.DefaultCostModel())
		isn.BudgetMs = cfg.budget
		if cfg.predict {
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
		tracer := telemetry.NewTracer(cfg.ringCap)
		isn.Tracer = tracer
		spans := telemetry.NewSpanTracer(cfg.spanCap)
		isn.Spans = spans
		isn.SLO = sloISN[s]
		isn.Start()

		mux := http.NewServeMux()
		mux.Handle("/search", isn)
		mux.Handle("/metrics", metricsHandler)
		mux.Handle("/debug/decisions", telemetry.DecisionsHandler(tracer, 100))
		mux.Handle("/debug/traces", telemetry.TracesHandler(spans, 20))
		mux.Handle("/debug/slo", sloISN[s].Handler(120))
		if cfg.tlIv > 0 {
			mux.Handle("/debug/timeline", isn.StartTimeline(cfg.tlIv, cfg.tlCap).Handler(60))
		}
		registerPprof(mux)
		addr := fmt.Sprintf("127.0.0.1:%d", cfg.port+1+s)
		go func(a string, m *http.ServeMux) {
			log.Fatal(listen(a, m))
		}(addr, mux)
		urls = append(urls, "http://"+addr)
		log.Printf("isn-%d: listen=%s docs=%d predictor=%s budget=%.1fms", s, addr, spec.NumDocs, predictorMode(cfg.predict), cfg.budget)
	}

	agg := server.NewAggregator(urls, cfg.k)
	if cfg.partial {
		agg.Policy = server.Partial
		agg.Quorum = cfg.shards
		agg.Timeout = cfg.timeout
	}
	agg.BudgetMs = cfg.budget
	agg.Instrument(met)
	aggTracer := telemetry.NewTracer(cfg.ringCap)
	agg.Tracer = aggTracer
	aggSpans := telemetry.NewSpanTracer(cfg.spanCap)
	agg.Spans = aggSpans
	agg.TraceSample = cfg.sample
	agg.SLO = sloAgg

	mux := http.NewServeMux()
	mux.Handle("/search", agg)
	mux.Handle("/metrics", metricsHandler)
	mux.Handle("/debug/decisions", telemetry.DecisionsHandler(aggTracer, 100))
	mux.Handle("/debug/traces", telemetry.TracesHandler(aggSpans, 20))
	mux.Handle("/debug/slo", sloAgg.Handler(120))
	if cfg.tlIv > 0 {
		mux.Handle("/debug/timeline", agg.StartTimeline(cfg.tlIv, cfg.tlCap).Handler(60))
	}
	registerPprof(mux)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	addr := fmt.Sprintf("127.0.0.1:%d", cfg.port)
	policy := "wait-all"
	if cfg.partial {
		policy = "partial"
	}
	log.Printf("aggregator: listen=%s shards=%d policy=%s predictor=%s trace-sample=%.2f budget=%.1fms", addr, cfg.shards, policy, predictorMode(cfg.predict), cfg.sample, cfg.budget)
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
