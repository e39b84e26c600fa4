package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"gemini/internal/stats"
)

// metricDef is one row of BENCHMARK.json: a metric's name and the unit its
// value is printed with. The tables below are the ledger's vocabulary; the
// smoke test requires them to equal BENCHMARK.json entry for entry.
type metricDef struct {
	name, unit string
	note       string // printed beside the value in the human-readable table
}

// endToEnd is printed by every workload of an untraced run. One list serves
// all five workloads (the driver requires every end-to-end metric on every
// run), so each name is generic and README.md's table says what it counts on
// each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "harness.NewPlatform(DefaultOptions())"},
	{"work_per_s", "1/s", "work units per host second: simulated events (sim_*), queries (query_path), good replies (live_search)"},
	{"allocs_per_op", "count", "MemStats.Mallocs delta per work unit"},
	{"latency_p50_ms", "ms", "median latency: simulated (sim_*), host (query_path, live_search)"},
	{"latency_p95_ms", "ms", "95th-percentile latency, same clock as the median"},
}

// perLayer is printed by every workload of a traced run. A workload reports
// 0 for a layer it never calls.
var perLayer = []metricDef{
	// Platform construction, re-run piecewise after NewPlatform (all workloads).
	{"harness.new_platform_s", "s", ""},
	{"corpus.generate_s", "s", ""},
	{"index.build_s", "s", ""},
	{"index.postings_total", "count", ""},
	{"predictor.train_s", "s", ""},
	{"predictor.service_accuracy_pct", "%", "test-set share within 1 ms"},
	{"predictor.error_coverage_pct", "%", "test-set share with actual <= S*+E*"},
	{"nn.params", "count", ""},

	// query_path.
	{"corpus.parse_query_ns", "ns", "p50"},
	{"search.search_us_p50", "us", ""},
	{"search.search_us_p99", "us", ""},
	{"search.postings_visited_per_query", "count", ""},
	{"search.docs_scored_per_query", "count", ""},
	{"search.topk_entry_ratio", "x", "DocsEverInTopK / DocsScored"},
	{"search.features_ns", "ns", "p50"},
	{"search.allocs_per_search", "count", ""},
	{"nn.infer_ns", "ns", "classifier network forward pass"},
	{"predictor.service_ns", "ns", "p50"},
	{"predictor.error_ns", "ns", "p50"},
	{"core.plan_single_ns", "ns", "p50"},

	// sim_* (which of the three fills a row is in README.md).
	{"core.plan_group_ns", "ns", ""},
	{"policy.baseline.ns_per_request", "ns", ""},
	{"policy.rubik.ns_per_request", "ns", ""},
	{"policy.pegasus.ns_per_request", "ns", ""},
	{"policy.gemini-a.ns_per_request", "ns", ""},
	{"policy.gemini.ns_per_request", "ns", ""},
	{"policy.gemini.callbacks", "count", ""},
	{"sim.engine_ns_per_event", "ns", "sim.Run, FixedPolicy"},
	{"sim.cell_ns_per_event", "ns", ""},
	{"sim.cluster12_ns_per_event", "ns", ""},
	{"sim.topology_overhead_x", "x", "cell / single-ISN ns per event, policy Gemini"},
	{"sim.router_pick_ns", "ns", ""},
	{"sim.router_picks", "count", ""},
	{"sim.build_workload_ns_per_request", "ns", ""},
	{"sim.dispatch_ns_per_request", "ns", ""},
	{"sim.workers_speedup_x", "x", "serial / GOMAXPROCS-worker wall time"},
	{"sim.cap_throttles", "count", ""},
	{"sim.events", "count", ""},
	{"harness.workload_ns_per_request", "ns", ""},
	{"trace.gen_ns_per_arrival", "ns", ""},
	{"par.run_overhead_us", "us", ""},
	{"model.power_w", "W", "simulated"},
	{"model.violation_pct", "%", "simulated, policy Gemini"},
	{"model.saving_pct", "%", "simulated, Gemini vs Baseline"},

	// sim_observed.
	{"telemetry.decision_emit_ns", "ns", ""},
	{"telemetry.span_emit_ns", "ns", ""},
	{"telemetry.slo_observe_ns", "ns", ""},
	{"telemetry.observed_slowdown_x", "x", "plain / observed events per second"},
	{"telemetry.observed_extra_allocs_per_event", "count", ""},
	{"telemetry.spans_emitted", "count", ""},
	{"telemetry.decisions_emitted", "count", ""},

	// live_search.
	{"telemetry.prometheus_write_us", "us", ""},
	{"server.agg_ms_p50", "ms", "AggResponse.LatencyMs"},
	{"server.client_edge_us_p50", "us", "client minus aggregator"},
	{"server.fanout_us_p50", "us", "aggregator minus slowest shard's queue+exec"},
	{"server.isn_queue_us_p50", "us", ""},
	{"server.isn_queue_us_p99", "us", ""},
	{"server.isn_exec_us_p50", "us", ""},
	{"server.isn_handler_us_p50", "us", "ISN.ServeHTTP, no socket"},
	{"server.isn_direct_ms_p50", "ms", "POST to one ISN"},
	{"server.json_encode_ns", "ns", "ISNResponse"},
	{"server.json_decode_ns", "ns", "ISNResponse"},
	{"server.allocs_per_query", "count", ""},
	{"server.client_ms_p99", "ms", ""},
	{"server.stragglers", "count", ""},
	{"server.shard_errors", "count", ""},

	// The traced workload itself.
	{"bench.trace_overhead_pct", "%", "untraced / traced rate at equal work"},
}

// segments is how many equal pieces every measured region is cut into; rate
// and percentile metrics are medians over them.
const segments = 5

// segment is one timed piece of a workload.
type segment struct {
	ops     float64 // work units finished
	elapsed time.Duration
	mallocs uint64
	latMs   []float64 // latency samples taken in this segment
}

// measure times n segments of identical work. The heap is collected before
// each so every segment starts from the same state.
func measure(n int, seg func(i int) (ops float64, latMs []float64)) []segment {
	out := make([]segment, n)
	var m0, m1 runtime.MemStats
	for i := range out {
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		ops, lat := seg(i)
		out[i].elapsed = time.Since(t0)
		runtime.ReadMemStats(&m1)
		out[i].ops, out[i].latMs, out[i].mallocs = ops, lat, m1.Mallocs-m0.Mallocs
	}
	return out
}

// rate is the median over segments of work units per host second.
func rate(segs []segment) float64 {
	v := make([]float64, len(segs))
	for i, s := range segs {
		v[i] = s.ops / s.elapsed.Seconds()
	}
	return median(v)
}

// allocsPerOp is the median over segments of mallocs per work unit.
func allocsPerOp(segs []segment) float64 {
	v := make([]float64, len(segs))
	for i, s := range segs {
		v[i] = float64(s.mallocs) / s.ops
	}
	return median(v)
}

// latencyPct is the median over segments of each segment's p-th percentile,
// with the total sample count behind it.
func latencyPct(segs []segment, p float64) (v float64, samples int) {
	per := make([]float64, len(segs))
	for i, s := range segs {
		per[i] = percentile(s.latMs, p)
		samples += len(s.latMs)
	}
	return median(per), samples
}

// percentile is stats.Percentile (linear interpolation between ranks, as
// the simulator's own tail latencies use), reading 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	v, _ := stats.Percentile(xs, p) // the only error is the empty set, which reads 0
	return v
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// result is what one workload hands back.
type result struct {
	segs        []segment
	unit        string // what one work unit is, for the table
	attempted   int    // operations run or checked
	failed      int    // of those, how many broke an output check
	problems    []string
	fingerprint string             // sim_* only: hash of the simulated statistics
	rows        map[string]float64 // sim_* only: per-layer rows every run knows (modelled outcome, event and throttle counts)

	// What a traced run's per-layer rows need beyond the segments.
	cell                    *cellOutcome // sim_cell, sim_observed
	deco                    *simDeco     // sim_*, traced
	stragglers, shardErrors int          // live_search
}

// fail counts one failed operation and keeps the first few reasons.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// resultLine is the driver-facing last line of a workload's output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]outMetric `json:"metrics"`
}

type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints one workload's table, its fingerprint when it has one, and
// the JSON result line. Values come from vals by metric name; a declared
// metric the workload did not fill prints 0. It returns whether the workload
// was correct.
func report(w io.Writer, name string, res *result, defs []metricDef, vals map[string]float64, samples map[string]int) (bool, error) {
	line := resultLine{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]outMetric, len(defs)),
	}
	fmt.Fprintf(w, "workload %s: %d %s in %d segments, per host second:", name, int(totalOps(res.segs)), res.unit, len(res.segs))
	for _, s := range res.segs {
		fmt.Fprintf(w, " %.5g", s.ops/s.elapsed.Seconds())
	}
	fmt.Fprintln(w)
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false, fmt.Errorf("%s: metric %s is not finite", name, d.name)
		}
		line.Metrics[d.name] = outMetric{Value: v, Unit: d.unit}
		note := d.note
		if n, ok := samples[d.name]; ok {
			note = fmt.Sprintf("n=%d; %s", n, note)
		}
		fmt.Fprintf(w, "  %-42s %16.6g %-6s %s\n", d.name, v, d.unit, note)
	}
	failedPct := 100 * float64(res.failed) / float64(max(res.attempted, 1))
	fmt.Fprintf(w, "  %-42s %16.6g %-6s %d failed of %d attempted\n", "failed_pct", failedPct, "%", res.failed, res.attempted)
	for _, p := range res.problems {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", p)
	}
	if res.fingerprint != "" {
		fmt.Fprintf(w, "fingerprint %s %s power_w=%v violation_pct=%v", name, res.fingerprint, res.rows["model.power_w"], res.rows["model.violation_pct"])
		if s, ok := res.rows["model.saving_pct"]; ok {
			fmt.Fprintf(w, " saving_pct=%v", s)
		}
		fmt.Fprintln(w)
	}
	js, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%s\n", js)
	return line.Correct, nil
}

func totalOps(segs []segment) float64 {
	t := 0.0
	for _, s := range segs {
		t += s.ops
	}
	return t
}
