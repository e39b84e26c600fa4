package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func spanN(trace string, i int, start, end float64) Span {
	return Span{
		TraceID: trace, SpanID: "s" + strconv.Itoa(i), Name: "phase",
		StartMs: start, EndMs: end,
	}
}

func TestSpanTracerRingEviction(t *testing.T) {
	tr := NewSpanTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(spanN("t", i, float64(i), float64(i+1)))
	}
	if tr.Total() != 10 {
		t.Fatalf("total = %d", tr.Total())
	}
	got := tr.Spans()
	if len(got) != 4 {
		t.Fatalf("retained = %d", len(got))
	}
	for i, s := range got {
		if want := "s" + strconv.Itoa(6+i); s.SpanID != want {
			t.Errorf("span %d = %s, want %s (oldest-first)", i, s.SpanID, want)
		}
	}
	if snap := tr.Snapshot(2); len(snap) != 2 || snap[1].SpanID != "s9" {
		t.Errorf("Snapshot(2) = %+v", snap)
	}
}

func TestSpanTracerTraces(t *testing.T) {
	tr := NewSpanTracer(64)
	tr.EmitBatch([]Span{spanN("a", 0, 0, 5), spanN("a", 1, 1, 3)})
	tr.EmitBatch([]Span{spanN("b", 0, 10, 12)})
	views := tr.Traces(0)
	if len(views) != 2 {
		t.Fatalf("traces = %d", len(views))
	}
	a := views[0]
	if a.TraceID != "a" || a.StartMs != 0 || a.EndMs != 5 || a.DurationMs != 5 || len(a.Spans) != 2 {
		t.Errorf("trace a view = %+v", a)
	}
	// maxTraces keeps the most recent traces.
	if views = tr.Traces(1); len(views) != 1 || views[0].TraceID != "b" {
		t.Errorf("Traces(1) = %+v", views)
	}

	// Traces come in the order of their first retained span, with spans of
	// different traces interleaved. A map's iteration order is random per
	// range and may match on any one call, so the order is checked on many.
	want := []string{"a", "b", "q", "c", "z", "d"}
	for i, id := range want[2:] {
		tr.EmitBatch([]Span{spanN(id, 0, 20, 21), spanN(want[i], 9, 20, 22)})
	}
	for i := 0; i < 200; i++ {
		views = tr.Traces(0)
		got := make([]string, len(views))
		for j, v := range views {
			got[j] = v.TraceID
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("call %d: traces %v, want first-appearance order %v", i, got, want)
		}
	}
}

func TestGroupSpansByTraceOrder(t *testing.T) {
	ids, byTrace := GroupSpansByTrace([]Span{
		spanN("x", 0, 0, 1), spanN("y", 0, 0, 1), spanN("x", 1, 1, 2),
	})
	if len(ids) != 2 || ids[0] != "x" || ids[1] != "y" {
		t.Fatalf("ids = %v", ids)
	}
	if len(byTrace["x"]) != 2 || byTrace["x"][1].SpanID != "s1" {
		t.Errorf("trace x spans = %+v", byTrace["x"])
	}
}

// TestNilSpanTracerAllocFree proves the disabled path is allocation-free:
// every method of a nil *SpanTracer must return without allocating.
func TestNilSpanTracerAllocFree(t *testing.T) {
	var tr *SpanTracer
	sp := spanN("t", 0, 0, 1)
	batch := []Span{sp}
	if n := testing.AllocsPerRun(100, func() {
		tr.Emit(sp)
		tr.EmitBatch(batch)
		_ = tr.Total()
		_ = tr.Snapshot(4)
		_ = tr.Traces(4)
		_ = tr.Capacity()
	}); n != 0 {
		t.Errorf("nil tracer allocates %.1f per call set", n)
	}
	if c := tr.Capacity(); c != 0 {
		t.Errorf("nil tracer capacity = %d, want 0", c)
	}
}

// TestSpanTracerConcurrentEmit exercises the tracer under concurrent
// emitters (run with -race): batches from distinct goroutines must stay
// internally adjacent and nothing may be lost or torn.
func TestSpanTracerConcurrentEmit(t *testing.T) {
	const workers, traces = 8, 50
	tr := NewSpanTracer(workers * traces * 3)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < traces; i++ {
				id := "w" + strconv.Itoa(w) + "-" + strconv.Itoa(i)
				tr.EmitBatch([]Span{spanN(id, 0, 0, 2), spanN(id, 1, 0, 1)})
				tr.Emit(spanN(id, 2, 1, 2))
			}
		}(w)
	}
	wg.Wait()
	if want := uint64(workers * traces * 3); tr.Total() != want {
		t.Fatalf("total = %d, want %d", tr.Total(), want)
	}
	spans := tr.Spans()
	// EmitBatch holds the lock across the batch: the two batch spans of any
	// trace must be adjacent in the ring.
	for i := 0; i < len(spans); i++ {
		if spans[i].SpanID == "s0" {
			if i+1 >= len(spans) || spans[i+1].TraceID != spans[i].TraceID || spans[i+1].SpanID != "s1" {
				t.Fatalf("batch torn at %d: %+v", i, spans[i])
			}
		}
	}
	ids, byTrace := GroupSpansByTrace(spans)
	if len(ids) != workers*traces {
		t.Fatalf("traces = %d", len(ids))
	}
	for _, id := range ids {
		if len(byTrace[id]) != 3 {
			t.Errorf("trace %s has %d spans", id, len(byTrace[id]))
		}
	}
}

func TestTracesHandler(t *testing.T) {
	tr := NewSpanTracer(64)
	tr.EmitBatch([]Span{spanN("q1", 0, 0, 4), spanN("q1", 1, 0, 2)})
	tr.EmitBatch([]Span{spanN("q2", 0, 5, 9)})

	h := TracesHandler(tr, 16)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	var payload struct {
		TotalSpans uint64      `json:"total_spans"`
		Traces     []TraceView `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	if payload.TotalSpans != 3 || len(payload.Traces) != 2 {
		t.Fatalf("payload = %+v", payload)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?n=1", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.Traces) != 1 || payload.Traces[0].TraceID != "q2" {
		t.Fatalf("n=1 payload = %+v", payload)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?n=-2", nil))
	if rec.Code != 400 {
		t.Errorf("bad n: status %d", rec.Code)
	}

	// A nil tracer serves an empty payload rather than panicking.
	rec = httptest.NewRecorder()
	TracesHandler(nil, 16).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	if payload.TotalSpans != 0 || len(payload.Traces) != 0 {
		t.Errorf("nil-tracer payload = %+v", payload)
	}
}

func TestSpanAccumulatorReplayEqualsDirect(t *testing.T) {
	// The sharded-cluster telemetry contract: capture into a ring that keeps
	// every span, replay via EmitBatch into a bounded ring — the ring must end
	// up exactly as if the spans had been emitted directly.
	direct := NewSpanTracer(8)
	acc := NewSpanTracer(20)
	for i := 0; i < 20; i++ {
		sp := spanN("t", i, float64(i), float64(i+1))
		direct.Emit(sp)
		acc.Emit(sp)
	}
	replayed := NewSpanTracer(8)
	replayed.EmitBatch(acc.Spans())
	d, r := direct.Spans(), replayed.Spans()
	if len(d) != len(r) {
		t.Fatalf("retained %d vs %d", len(d), len(r))
	}
	for i := range d {
		if d[i].SpanID != r[i].SpanID || d[i].StartMs != r[i].StartMs {
			t.Fatalf("span %d differs: %+v vs %+v", i, d[i], r[i])
		}
	}
}

// TestSpanJSONGolden pins the wire format across the move of Span.Attrs from
// a map to an inline value: the attrs object keeps its name-sorted keys and
// encoding/json's number format, and a span without attributes has no
// "attrs" key at all. /debug/traces and the X-Gemini-Trace envelope carry
// exactly these bytes.
func TestSpanJSONGolden(t *testing.T) {
	with := Span{
		TraceID: "gemini/7", SpanID: "exec-0", ParentID: "request", Name: "exec-initial",
		StartMs: 1.5, EndMs: 4,
		Attrs: Attrs{}.With(AttrFreqGHz, 2.7).With(AttrEnergyMJ, 1e-7),
	}
	without := Span{TraceID: "agg-1", SpanID: "query", Name: "query", EndMs: 12.25}
	golden := map[*Span]string{
		&with: `{"trace_id":"gemini/7","span_id":"exec-0","parent_id":"request","name":"exec-initial",` +
			`"start_ms":1.5,"end_ms":4,"attrs":{"energy_mj":1e-7,"freq_ghz":2.7}}`,
		&without: `{"trace_id":"agg-1","span_id":"query","name":"query","start_ms":0,"end_ms":12.25}`,
	}
	for sp, want := range golden {
		got, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("marshal:\n got %s\nwant %s", got, want)
		}
		var back Span
		if err := json.Unmarshal([]byte(want), &back); err != nil {
			t.Fatal(err)
		}
		if back != *sp {
			t.Errorf("unmarshal:\n got %+v\nwant %+v", back, *sp)
		}
	}
	// Inside a slice, as TraceView and the ISN envelope hold them.
	list, err := json.Marshal([]Span{without})
	if err != nil || string(list) != "["+golden[&without]+"]" {
		t.Errorf("slice marshal = %s, %v", list, err)
	}
}

func TestAttrsSetSemantics(t *testing.T) {
	for k := AttrKey(2); k < numAttrKeys; k++ {
		if attrNames[k-1] >= attrNames[k] {
			t.Fatalf("attrNames out of name order at %q: key order must be JSON key order", attrNames[k])
		}
	}
	a := Attrs{}.With(AttrShard, 3).With(AttrDropped, 1).With(AttrShard, 4)
	b := Attrs{}.With(AttrDropped, 1).With(AttrShard, 4)
	if a != b || a.n != 2 || a.Get(AttrShard) != 4 || a.Get(AttrGapMs) != 0 {
		t.Errorf("a = %+v, b = %+v", a, b)
	}
	if sp := (Span{Attrs: a}); sp.Attr("shard") != 4 || sp.Attr("no_such_attr") != 0 {
		t.Errorf("Attr by name: shard=%v", sp.Attr("shard"))
	}
	defer func() {
		if recover() == nil {
			t.Error("a fifth attribute did not panic")
		}
	}()
	a.With(AttrGapMs, 1).With(AttrResults, 1).With(AttrViolated, 1)
}

func TestAttrsDecodeBounds(t *testing.T) {
	var a Attrs
	// Unknown names are dropped, like unknown struct fields.
	if err := json.Unmarshal([]byte(`{"depth":2,"shard":1}`), &a); err != nil || a != (Attrs{}.With(AttrShard, 1)) {
		t.Errorf("unknown key: %+v, %v", a, err)
	}
	if err := json.Unmarshal([]byte(`null`), &a); err != nil || a.n != 0 {
		t.Errorf("null: %+v, %v", a, err)
	}
	over := `{"shard":1,"results":2,"gap_ms":3,"dropped":1,"violated":1}`
	if err := json.Unmarshal([]byte(over), &a); err == nil {
		t.Errorf("five known attributes decoded: %+v", a)
	}
	if err := json.Unmarshal([]byte(`{"shard":"x"}`), &a); err == nil {
		t.Error("non-numeric attribute decoded")
	}
}

// TestSpanTracerEmitRunEqualsDirect: handing a ring the tail of a run plus
// the count of what was dropped must leave it exactly as emitting the whole
// run span by span would, on top of whatever it already held.
func TestSpanTracerEmitRunEqualsDirect(t *testing.T) {
	for _, n := range []int{3, 8, 20} {
		direct, deferred := NewSpanTracer(8), NewSpanTracer(8)
		for i := 0; i < 5; i++ { // prior content
			direct.Emit(spanN("old", i, 0, 1))
			deferred.Emit(spanN("old", i, 0, 1))
		}
		run := make([]Span, n)
		for i := range run {
			run[i] = spanN("run", i, float64(i), float64(i+1))
			direct.Emit(run[i])
		}
		keep := min(n, deferred.Capacity())
		deferred.EmitRun(uint64(n-keep), run[n-keep:])
		if direct.Total() != deferred.Total() {
			t.Errorf("n=%d: total %d vs %d", n, deferred.Total(), direct.Total())
		}
		d, r := direct.Spans(), deferred.Spans()
		if len(d) != len(r) {
			t.Fatalf("n=%d: retained %d vs %d", n, len(r), len(d))
		}
		for i := range d {
			if d[i] != r[i] {
				t.Fatalf("n=%d: span %d = %+v, want %+v", n, i, r[i], d[i])
			}
		}
	}
	if (*SpanTracer)(nil).Capacity() != 0 {
		t.Error("a nil tracer reports a capacity")
	}
}
