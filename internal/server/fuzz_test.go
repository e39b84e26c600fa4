package server

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"testing"

	"gemini/internal/telemetry"
)

// FuzzTraceEnvelopeDecode hardens the ISN response envelope against
// arbitrary bytes: whatever a (buggy or hostile) shard sends, the aggregator
// path (ISNResponse.decodeJSON) must either reject it at decode or handle it
// without panicking. For every envelope that decodes, the properties the
// stitching code relies on must hold: re-encoding with the ISN's appendJSON
// is stable (canonical round trip), sorting into waterfall order terminates
// and preserves the span count, and the rebase shift applied by stitch
// preserves every span's duration.
func FuzzTraceEnvelopeDecode(f *testing.F) {
	seed := ISNResponse{
		Shard:     3,
		ServiceMs: 12.5, PredictedMs: 11.0, PredErrMs: 1.5,
		QueueDepth: 2, QueueWaitMs: 0.5, ExecWallMs: 12.0,
		Spans: []telemetry.Span{
			{TraceID: "agg-1", SpanID: "isn-root", Name: "isn-exec", StartMs: 0.5, EndMs: 12.5},
			{TraceID: "agg-1", SpanID: "isn-q", ParentID: "isn-root", Name: "isn-queue",
				StartMs: 0, EndMs: 0.5, Attrs: telemetry.Attrs{}.With(telemetry.AttrQueueDepth, 2)},
		},
	}
	data, err := json.Marshal(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"spans":[{"start_ms":1e308,"end_ms":-1e308}]}`))
	f.Add([]byte(`{"shard":-1,"spans":null,"results":[]}`))
	// What the seed above encoded to while Span.Attrs was a map, with an
	// attribute name this build does not know: it must still decode.
	f.Add([]byte(`{"shard":3,"results":null,"service_ms":12.5,"predicted_ms":11,"pred_err_ms":1.5,"queue_depth":2,"queue_wait_ms":0.5,"exec_wall_ms":12,"spans":[{"trace_id":"agg-1","span_id":"isn-root","name":"isn-exec","start_ms":0.5,"end_ms":12.5},{"trace_id":"agg-1","span_id":"isn-q","parent_id":"isn-root","name":"isn-queue","start_ms":0,"end_ms":0.5,"attrs":{"depth":2}}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var r ISNResponse
		if err := r.decodeJSON(data); err != nil {
			return // rejected at the envelope boundary: fine
		}

		// Canonical round trip: encode must succeed (JSON never yields
		// NaN/Inf floats, the one thing the encoder rejects) and re-decode to
		// an identically-encoding value.
		enc1, err := r.appendJSON(nil)
		if err != nil {
			t.Fatalf("decoded envelope does not re-encode: %v", err)
		}
		var r2 ISNResponse
		if err := r2.decodeJSON(enc1); err != nil {
			t.Fatalf("re-encoded envelope does not decode: %v", err)
		}
		enc2, err := r2.appendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("round trip unstable:\n%s\n%s", enc1, enc2)
		}

		// Sorting any decodable span set into waterfall order must keep the
		// count and never panic.
		spans := make([]telemetry.Span, len(r.Spans))
		copy(spans, r.Spans)
		sortSpans(spans)
		if len(spans) != len(r.Spans) {
			t.Fatalf("sort changed span count: %d -> %d", len(r.Spans), len(spans))
		}

		// stitch rebases ISN spans by the leg's send offset; the shift must
		// preserve durations for every finite span.
		const sendMs = 1.25
		for _, sp := range r.Spans {
			want := sp.DurationMs()
			sp.StartMs += sendMs
			sp.EndMs += sendMs
			if math.IsInf(want, 0) || math.IsNaN(want) {
				continue // only reachable via ±MaxFloat64 overflow inputs
			}
			if got := sp.DurationMs(); math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
				t.Fatalf("rebase changed duration: %v -> %v", want, got)
			}
		}
	})
}

// sortSpans orders spans by start time (ties: longer first, then by name) —
// waterfall display order.
func sortSpans(spans []telemetry.Span) {
	sort.SliceStable(spans, func(i, j int) bool {
		switch {
		case spans[i].StartMs < spans[j].StartMs:
			return true
		case spans[i].StartMs > spans[j].StartMs:
			return false
		case spans[i].EndMs > spans[j].EndMs:
			return true
		case spans[i].EndMs < spans[j].EndMs:
			return false
		}
		return spans[i].Name < spans[j].Name
	})
}

func TestSortSpans(t *testing.T) {
	spans := []telemetry.Span{
		{SpanID: "c", Name: "c", StartMs: 2, EndMs: 3},
		{SpanID: "b", Name: "b", StartMs: 0, EndMs: 1},
		{SpanID: "a", Name: "a", StartMs: 0, EndMs: 5},
	}
	sortSpans(spans)
	if spans[0].SpanID != "a" || spans[1].SpanID != "b" || spans[2].SpanID != "c" {
		t.Errorf("order = %s %s %s", spans[0].SpanID, spans[1].SpanID, spans[2].SpanID)
	}
}
