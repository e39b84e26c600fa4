package server

import (
	"strconv"

	"gemini/internal/telemetry"
)

// Metric family names and help strings, shared between the pre-registration
// (Instrument, so every family renders from startup) and the increment sites.
const (
	aggRequestsName  = "gemini_agg_requests_total"
	aggRequestsHelp  = "Queries handled by the aggregator."
	aggErrorsName    = "gemini_agg_request_errors_total"
	aggErrorsHelp    = "Aggregator queries that failed outright (no shard responded)."
	aggLatencyName   = "gemini_agg_request_latency_ms"
	aggLatencyHelp   = "End-to-end aggregator query latency in milliseconds."
	aggPartialsName  = "gemini_agg_partial_aggregations_total"
	aggPartialsHelp  = "Aggregations that returned without every shard (quorum or timeout cut, paper ref [2])."
	aggStragglerName = "gemini_agg_shard_stragglers_total"
	aggStragglerHelp = "Shard replies still in flight when their aggregation returned, by shard (the responses partial aggregation discards)."
	aggShardErrName  = "gemini_agg_shard_errors_total"
	aggShardErrHelp  = "Shard requests that failed, by shard."

	isnRequestsName  = "gemini_isn_requests_total"
	isnRequestsHelp  = "Queries served by the ISN working thread, by shard."
	isnLatencyName   = "gemini_isn_request_latency_ms"
	isnLatencyHelp   = "ISN wall latency (queueing + execution) in milliseconds, by shard."
	isnServiceName   = "gemini_isn_service_time_ms"
	isnServiceHelp   = "Modeled service time at the default frequency in milliseconds, by shard."
	isnDepthName     = "gemini_isn_queue_depth"
	isnDepthHelp     = "Requests queued or executing on the ISN, by shard."
	isnPredTotalName = "gemini_isn_predictions_total"
	isnPredTotalHelp = "Requests served with a service-time prediction attached, by shard."
	isnPredErrName   = "gemini_isn_predict_abs_err_ms"
	isnPredErrHelp   = "Absolute error of the predicted service time S* versus the modeled actual, in milliseconds, by shard."
	isnPredCoverName = "gemini_isn_predictions_covered_total"
	isnPredCoverHelp = "Predictions whose budgeted estimate S*+E* bounded the actual service time, by shard."

	obsNsName    = "gemini_telemetry_observe_ns_total"
	obsNsHelp    = "Cumulative wall nanoseconds spent in per-request observation blocks (metrics, decision trace, span assembly) across the process."
	obsCountName = "gemini_telemetry_observations_total"
	obsCountHelp = "Per-request observation blocks executed across the process (divide observe_ns by this for mean per-request telemetry cost)."
)

// predErrBuckets matches the tracer's prediction-quality view: the paper
// audits predictor errors at 1-5 ms tolerance (Fig. 7/8).
var predErrBuckets = []float64{0.5, 1, 2, 3, 5, 7.5, 10, 15, 20}

// Metrics bundles the serving path's instruments over one shared registry,
// so the aggregator and every ISN of a process expose a single coherent
// /metrics page. A nil *Metrics disables instrumentation everywhere.
type Metrics struct {
	Registry *telemetry.Registry

	aggRequests *telemetry.Counter
	aggErrors   *telemetry.Counter
	aggLatency  *telemetry.Histogram
	aggPartials *telemetry.Counter

	// Telemetry self-overhead meter, shared by every listener of the process
	// (the cost being measured is process-wide, not per-shard).
	obsNs    *telemetry.Counter
	obsCount *telemetry.Counter
}

// NewMetrics builds the bundle on reg (a fresh registry when nil) and
// registers the aggregator-level families.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &Metrics{
		Registry:    reg,
		aggRequests: reg.Counter(aggRequestsName, aggRequestsHelp),
		aggErrors:   reg.Counter(aggErrorsName, aggErrorsHelp),
		aggLatency:  reg.Histogram(aggLatencyName, aggLatencyHelp, nil),
		aggPartials: reg.Counter(aggPartialsName, aggPartialsHelp),
		obsNs:       reg.Counter(obsNsName, obsNsHelp),
		obsCount:    reg.Counter(obsCountName, obsCountHelp),
	}
}

func shardLabel(shard int) telemetry.Label {
	return telemetry.L("shard", strconv.Itoa(shard))
}

// shardStraggler counts one abandoned in-flight shard reply.
func (m *Metrics) shardStraggler(shard int) {
	m.Registry.Counter(aggStragglerName, aggStragglerHelp, shardLabel(shard)).Inc()
}

// shardError counts one failed shard request.
func (m *Metrics) shardError(shard int) {
	m.Registry.Counter(aggShardErrName, aggShardErrHelp, shardLabel(shard)).Inc()
}

// isnInstruments caches one shard's labeled instruments so the ISN hot path
// never takes the registry lock.
type isnInstruments struct {
	requests    *telemetry.Counter
	latency     *telemetry.Histogram
	service     *telemetry.Histogram
	queueDepth  *telemetry.Gauge
	predTotal   *telemetry.Counter
	predAbsErr  *telemetry.Histogram
	predCovered *telemetry.Counter
	// Process-wide self-overhead meter, shared with the bundle.
	obsNs    *telemetry.Counter
	obsCount *telemetry.Counter
}

func (m *Metrics) isnInstruments(shard int) *isnInstruments {
	l := shardLabel(shard)
	r := m.Registry
	return &isnInstruments{
		requests:    r.Counter(isnRequestsName, isnRequestsHelp, l),
		latency:     r.Histogram(isnLatencyName, isnLatencyHelp, nil, l),
		service:     r.Histogram(isnServiceName, isnServiceHelp, nil, l),
		queueDepth:  r.Gauge(isnDepthName, isnDepthHelp, l),
		predTotal:   r.Counter(isnPredTotalName, isnPredTotalHelp, l),
		predAbsErr:  r.Histogram(isnPredErrName, isnPredErrHelp, predErrBuckets, l),
		predCovered: r.Counter(isnPredCoverName, isnPredCoverHelp, l),
		obsNs:       m.obsNs,
		obsCount:    m.obsCount,
	}
}
