package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
)

// MaxDebugN is the hard ceiling on the ?n= result-count parameter accepted
// by every /debug/ JSON handler (decisions, traces, timeline, slo). Debug
// endpoints are scraped during soaks while the server is saturated; an
// unbounded body on a large ring would stall the very listener under test.
const MaxDebugN = 10000

// ClampDebugN parses a ?n= query value with the shared /debug/ semantics:
// missing → def, invalid or negative → error (the handler answers 400),
// 0 (historically "everything retained") and anything above MaxDebugN →
// MaxDebugN. The default is clamped too, so no handler can be configured
// past the ceiling.
func ClampDebugN(s string, def int) (int, error) {
	n := def
	if s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			return 0, fmt.Errorf("bad n parameter %q", s)
		}
		n = v
	}
	if n <= 0 || n > MaxDebugN {
		n = MaxDebugN
	}
	return n, nil
}

// MetricsHandler serves the registry in the Prometheus text exposition
// format — mount it at /metrics.
func MetricsHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
}

// debugJSONHandler is every /debug/ JSON endpoint: it answers 400 to a bad
// ?n=, and otherwise writes payload(n), n clamped by ClampDebugN from the
// default defaultN, as indented JSON.
func debugJSONHandler(defaultN int, payload func(n int) any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, err := ClampDebugN(r.URL.Query().Get("n"), defaultN)
		if err != nil {
			http.Error(w, "bad n parameter", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(payload(n))
	})
}

// tracesPayload is the JSON body served by TracesHandler.
type tracesPayload struct {
	TotalSpans uint64      `json:"total_spans"`
	Traces     []TraceView `json:"traces"`
}

// TracesHandler serves the most recent stitched traces of a span tracer as
// JSON — mount it at /debug/traces. The ?n= query parameter bounds the trace
// count (default defaultN; n=0 returns every retained trace).
func TracesHandler(t *SpanTracer, defaultN int) http.Handler {
	return debugJSONHandler(defaultN, func(n int) any {
		payload := tracesPayload{Traces: []TraceView{}}
		if t != nil {
			payload.TotalSpans = t.Total()
			if views := t.Traces(n); views != nil {
				payload.Traces = views
			}
		}
		return payload
	})
}

// decisionsPayload is the JSON body served by DecisionsHandler.
type decisionsPayload struct {
	Total     uint64          `json:"total"`
	Decisions []Decision      `json:"decisions"`
	Quality   QualitySnapshot `json:"prediction_quality"`
}

// DecisionsHandler serves the most recent decisions of a tracer as JSON —
// mount it at /debug/decisions. The ?n= query parameter bounds the count
// (default defaultN; n=0 returns everything retained).
func DecisionsHandler(t *Tracer, defaultN int) http.Handler {
	return debugJSONHandler(defaultN, func(n int) any {
		payload := decisionsPayload{Decisions: []Decision{}}
		if t != nil {
			payload.Total = t.Ring().Total()
			payload.Decisions = t.Ring().Snapshot(n)
			payload.Quality = t.Quality()
		}
		return payload
	})
}
