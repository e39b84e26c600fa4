// Command bench is the repository's performance ledger: five workloads over
// the simulator and the live search path, end-to-end metrics with tracing
// off, per-layer metrics from a traced run, and output checks in the same
// command. BENCHMARK.json declares what it prints; README.md says why each
// workload exists and which end-to-end metric each layer should move.
//
//	go run ./bench                                  # every workload, untraced
//	go run ./bench -workload query_path -seed 3     # one workload
//	go run ./bench -trace 1                         # per-layer metrics + span file
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"gemini/internal/corpus"
	"gemini/internal/harness"
	"gemini/internal/index"
	"gemini/internal/predictor"
)

// sizes is the fixed work of each workload, per segment.
type sizes struct {
	cellReps     int     // sim_cell repetitions
	observedReps int     // sim_observed repetitions
	cellSimMs    float64 // simulated time of one cell repetition
	sweepReps    int     // sim_sweep grids
	sweepSimMs   float64 // simulated time of one sweep cell
	queries      int     // query_path queries
	requests     int     // live_search requests
}

// sizesFor turns the run length the driver asks for into fixed counts: work
// per second of each workload as measured on a 2-core 2.1 GHz Xeon, so the
// timed regions take about `seconds` there and the same work everywhere.
// The cell always simulates 300 s; the sweep grid is too coarse a unit to
// count, so its simulated time stretches instead (360 s at six seconds).
func sizesFor(seconds float64) sizes {
	perSegment := func(perSecond float64) int {
		return max(1, int(math.Round(seconds*perSecond/segments)))
	}
	return sizes{
		cellReps:     perSegment(6.5),
		observedReps: perSegment(1.8),
		cellSimMs:    300e3,
		sweepReps:    1,
		sweepSimMs:   60e3 * seconds,
		queries:      perSegment(14000),
		requests:     perSegment(4000),
	}
}

// traced returns the traced run's share of the work: one fifth.
func (s sizes) traced() sizes {
	fifth := func(n int) int { return max(1, n/5) }
	s.cellReps, s.observedReps = fifth(s.cellReps), fifth(s.observedReps)
	s.sweepSimMs /= 5
	s.queries, s.requests = fifth(s.queries), fifth(s.requests)
	return s
}

// config is one invocation. Everything the command line cannot set — the
// platform options and the work sizes — is there for the smoke test, which
// runs the small platform at a hundredth of the work.
type config struct {
	workloads []string
	seed      int64
	traced    bool
	traceOut  string // span file; "" writes none
	opts      harness.Options
	size      sizes
	deadline  time.Duration // per workload
}

// bench is the state the workloads share.
type bench struct {
	p      *harness.Platform
	seed   int64
	size   sizes
	layer  map[string]float64 // per-layer rows of the traced run
	shards []shard            // live_search's shards, built on first use
}

// workload is one row of BENCHMARK.json's workloads. run measures it (with
// spans and decorators when rec is non-nil) and checks its outputs; layers
// fills b.layer after a traced run, plain being the same work untraced.
type workload struct {
	name   string
	run    func(b *bench, rec *recorder) *result
	layers func(b *bench, plain, traced *result, rec *recorder)
}

var workloads = []workload{
	{"sim_cell",
		func(b *bench, rec *recorder) *result { return b.runCell(false, rec) },
		func(b *bench, plain, traced *result, rec *recorder) { b.cellLayers(false, plain, traced, rec) }},
	{"sim_observed",
		func(b *bench, rec *recorder) *result { return b.runCell(true, rec) },
		func(b *bench, plain, traced *result, rec *recorder) { b.cellLayers(true, plain, traced, rec) }},
	{"sim_sweep", (*bench).runSweep,
		func(b *bench, _, traced *result, _ *recorder) { b.sweepLayers(traced) }},
	{"query_path", (*bench).runQuery,
		func(b *bench, _, _ *result, rec *recorder) { b.queryLayers(rec) }},
	{"live_search", (*bench).runLive,
		func(b *bench, plain, traced *result, rec *recorder) { b.liveLayers(plain, traced, rec) }},
}

func main() {
	var (
		name     = flag.String("workload", "all", "workload to run: sim_cell, sim_observed, sim_sweep, query_path, live_search, or all")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs (queries, arrivals, jitter, routing); the platform is always DefaultOptions()")
		seconds  = flag.Float64("seconds", 6, "length of each workload's timed region on the reference machine; sets the fixed work counts")
		traced   = flag.Int("trace", 0, "1 runs a fifth of the work with spans recorded and prints the per-layer metrics")
		traceOut = flag.String("trace-out", "", "span file of a traced run, JSON lines (default .bench_build/bench-spans-<workload>.jsonl)")
	)
	flag.Parse()
	cfg := config{
		seed:     *seed,
		traced:   *traced != 0,
		traceOut: *traceOut,
		opts:     harness.DefaultOptions(),
		size:     sizesFor(*seconds),
		deadline: 150 * time.Second,
	}
	if *seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive and there are no positional arguments")
		os.Exit(2)
	}
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			cfg.workloads = append(cfg.workloads, w.name)
		}
	}
	if len(cfg.workloads) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if cfg.traced {
		cfg.size = cfg.size.traced()
		if cfg.traceOut == "" {
			cfg.traceOut = filepath.Join(".bench_build", "bench-spans-"+*name+".jsonl")
		}
	}
	ok, err := run(os.Stdout, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// run builds the platform, runs the configured workloads and prints their
// reports to w. It returns whether every output check passed.
func run(w io.Writer, cfg config) (bool, error) {
	b := &bench{seed: cfg.seed, size: cfg.size}
	// One build per run: the platform takes 6 to 10 s on the reference
	// machine, and a second build for a within-run median would put the
	// driver's 114 runs past its time limit whenever the host is slow.
	t0 := time.Now()
	b.p = harness.NewPlatform(cfg.opts)
	setupS := time.Since(t0).Seconds()
	var setupLayer map[string]float64
	if cfg.traced {
		setupLayer = b.setupLayers(setupS)
	}

	allOK := true
	var rec *recorder
	if cfg.traced {
		rec = newRecorder()
	}
	for _, wl := range workloads {
		if !slices.Contains(cfg.workloads, wl.name) {
			continue
		}
		done := make(chan outcome, 1) // room for the value, so a workload that overran its deadline can still exit
		go func() { done <- b.runWorkload(wl, rec, setupS, setupLayer) }()
		var out outcome
		select {
		case out = <-done:
		case <-time.After(cfg.deadline):
			return false, fmt.Errorf("workload %s did not finish within %v", wl.name, cfg.deadline)
		}
		defs := endToEnd
		if cfg.traced {
			defs = perLayer
		}
		ok, err := report(w, wl.name, out.res, defs, out.vals, out.samples)
		if err != nil {
			return false, err
		}
		allOK = allOK && ok
	}
	if rec != nil && cfg.traceOut != "" {
		if err := rec.write(cfg.traceOut); err != nil {
			return false, fmt.Errorf("span file: %w", err)
		}
		fmt.Fprintf(os.Stderr, "bench: %d spans written to %s\n", len(rec.spans), cfg.traceOut)
	}
	return allOK, nil
}

// outcome is a measured workload: its result and the metric values to print,
// with the sample count behind each percentile.
type outcome struct {
	res     *result
	vals    map[string]float64
	samples map[string]int
}

// runWorkload measures wl with tracing off and returns the end-to-end
// metrics; with a recorder it runs wl a second time traced and returns the
// per-layer metrics.
func (b *bench) runWorkload(wl workload, rec *recorder, setupS float64, setupLayer map[string]float64) outcome {
	plain := wl.run(b, nil)
	if rec == nil {
		p50, n := latencyPct(plain.segs, 50)
		p95, _ := latencyPct(plain.segs, 95)
		return outcome{plain, map[string]float64{
			"setup_s":        setupS,
			"work_per_s":     rate(plain.segs),
			"allocs_per_op":  allocsPerOp(plain.segs),
			"latency_p50_ms": p50,
			"latency_p95_ms": p95,
		}, map[string]int{"latency_p50_ms": n, "latency_p95_ms": n}}
	}
	rec.from = len(rec.spans) // this workload's rows read only its own spans
	b.layer = make(map[string]float64, len(perLayer))
	for k, v := range setupLayer {
		b.layer[k] = v
	}
	traced := wl.run(b, rec)
	wl.layers(b, plain, traced, rec)
	b.layer["bench.trace_overhead_pct"] = 100 * (rate(plain.segs)/rate(traced.segs) - 1)
	// Both runs' checks count.
	traced.attempted += plain.attempted
	traced.failed += plain.failed
	traced.problems = append(plain.problems, traced.problems...)
	return outcome{traced, b.layer, nil}
}

// setupLayers re-runs the platform's construction piece by piece through each
// layer's public constructor, to say where setup_s goes.
func (b *bench) setupLayers(setupS float64) map[string]float64 {
	p := b.p
	l := map[string]float64{"harness.new_platform_s": setupS}
	t0 := time.Now()
	c := corpus.Generate(p.Corpus.Spec)
	l["corpus.generate_s"] = time.Since(t0).Seconds()
	t0 = time.Now()
	ix := index.Build(c)
	l["index.build_s"] = time.Since(t0).Seconds()
	l["index.postings_total"] = float64(ix.TotalPostings())
	t0 = time.Now()
	cls := predictor.TrainClassifier(p.Dataset.Train, nil, p.Opt.NNConfig)
	predictor.TrainError(p.Dataset.Train, cls, p.Opt.NNConfig)
	l["predictor.train_s"] = time.Since(t0).Seconds()

	test := p.Dataset.Test
	l["predictor.service_accuracy_pct"] = 100 * (1 - predictor.Evaluate(p.Classifier, test, 1.0).ErrorRate)
	covered := 0
	for _, s := range test {
		if s.MeasuredMs <= p.Classifier.PredictMs(s.Features)+p.ErrPred.PredictErrMs(s.Features) {
			covered++
		}
	}
	l["predictor.error_coverage_pct"] = 100 * float64(covered) / float64(max(len(test), 1))
	l["nn.params"] = float64(p.Classifier.Network().NumParams())
	return l
}
