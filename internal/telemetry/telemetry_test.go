package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("reqs_total", "requests", L("shard", "0"))
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	// Same name+labels returns the same instrument.
	if reg.Counter("reqs_total", "requests", L("shard", "0")) != c {
		t.Error("re-registration returned a new counter")
	}
	g := reg.Gauge("depth", "queue depth")
	g.Set(3.5)
	g.Add(-1.5)
	if g.Value() != 2 {
		t.Errorf("gauge = %v, want 2", g.Value())
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m", "h")
	defer func() {
		if recover() == nil {
			t.Error("kind conflict did not panic")
		}
	}()
	reg.Gauge("m", "h")
}

func TestHistogramBucketsAndExposition(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_ms", "latency", []float64{1, 5, 10}, L("shard", "1"))
	for _, v := range []float64{0.5, 1, 3, 7, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); got != 61.5 {
		t.Errorf("sum = %v, want 61.5", got)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE lat_ms histogram",
		`lat_ms_bucket{shard="1",le="1"} 2`,    // 0.5 and 1 (le is inclusive)
		`lat_ms_bucket{shard="1",le="5"} 3`,    // + 3
		`lat_ms_bucket{shard="1",le="10"} 4`,   // + 7
		`lat_ms_bucket{shard="1",le="+Inf"} 5`, // + 50
		`lat_ms_sum{shard="1"} 61.5`,
		`lat_ms_count{shard="1"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestInstrumentsConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c", "h")
	g := reg.Gauge("g", "h")
	h := reg.Histogram("h", "h", nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 50))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Errorf("gauge = %v, want 8000", g.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count())
	}
}

func TestRingEvictsOldest(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		tr.Emit(Decision{RequestID: i})
	}
	r := tr.Ring()
	if r.Total() != 5 {
		t.Errorf("total = %d", r.Total())
	}
	got := r.Snapshot(0)
	if len(got) != 3 || got[0].RequestID != 2 || got[2].RequestID != 4 {
		t.Errorf("snapshot = %+v, want ids 2,3,4", got)
	}
	if last := r.Snapshot(1); len(last) != 1 || last[0].RequestID != 4 {
		t.Errorf("snapshot(1) = %+v", last)
	}
}

func TestTracerEmitRingQualitySink(t *testing.T) {
	tr := NewTracer(8)
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	tr.SetSink(w)

	// Two covered predictions, one not covered, one unpredicted (ignored by
	// the quality audit).
	tr.Emit(Decision{RequestID: 0, PredictedMs: 10, PredErrMs: 1, ActualMs: 10.5})
	tr.Emit(Decision{RequestID: 1, PredictedMs: 8, PredErrMs: 2, ActualMs: 9})
	tr.Emit(Decision{RequestID: 2, PredictedMs: 5, PredErrMs: 0.5, ActualMs: 9})
	tr.Emit(Decision{RequestID: 3, ActualMs: 4})

	if tr.Emitted() != 4 {
		t.Fatalf("emitted = %d", tr.Emitted())
	}
	ds := tr.Ring().Snapshot(0)
	if len(ds) != 4 || ds[0].Seq != 1 || ds[3].Seq != 4 {
		t.Fatalf("ring = %+v", ds)
	}
	q := tr.Quality()
	if q.N != 3 {
		t.Fatalf("quality n = %d, want 3 (unpredicted excluded)", q.N)
	}
	if want := 2.0 / 3.0; q.CoverageRate < want-1e-9 || q.CoverageRate > want+1e-9 {
		t.Errorf("coverage = %v, want %v", q.CoverageRate, want)
	}
	// abs errors: 0.5, 1, 4 → MAE 5.5/3
	if mae := q.MAEMs; mae < 1.83 || mae > 1.84 {
		t.Errorf("MAE = %v", mae)
	}

	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if tr.SinkErr() != nil {
		t.Fatal(tr.SinkErr())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("sink lines = %d", len(lines))
	}
	var d Decision
	if err := json.Unmarshal([]byte(lines[2]), &d); err != nil {
		t.Fatal(err)
	}
	if d.RequestID != 2 || d.PredictedMs != 5 {
		t.Errorf("decoded = %+v", d)
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(Decision{})
	if tr.Ring() != nil || tr.Emitted() != 0 || tr.SinkErr() != nil {
		t.Error("nil tracer accessors not inert")
	}
	_ = tr.Quality()
	if err := tr.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Error(err)
	}
}

// TestTracerEmitRunEqualsEmits: one EmitRun must leave a tracer exactly as
// emitting the run decision by decision would, on top of what it held: the
// ring, its total, the Seq count, the quality audit and the sink's bytes.
func TestTracerEmitRunEqualsEmits(t *testing.T) {
	const ringCap = 8
	mk := func(n, base int) []Decision {
		ds := make([]Decision, n)
		for i := range ds {
			id := base + i
			ds[i] = Decision{RequestID: id, PredictedMs: 5, PredErrMs: 1,
				ActualMs: 4.5 + 0.25*float64(id%7), Dropped: id%5 == 4, CriticalID: -1}
		}
		return ds
	}
	type state struct {
		ring    []Decision
		total   uint64
		emitted uint64
		quality QualitySnapshot
		sink    string
	}
	read := func(tr *Tracer, sink *bytes.Buffer) state {
		return state{tr.Ring().Snapshot(0), tr.Ring().Total(), tr.Emitted(), tr.Quality(), sink.String()}
	}
	for _, n := range []int{0, 3, ringCap, 3 * ringCap} {
		for _, withSink := range []bool{false, true} {
			direct, run := NewTracer(ringCap), NewTracer(ringCap)
			var directSink, runSink bytes.Buffer
			if withSink {
				direct.SetSink(&directSink)
				run.SetSink(&runSink)
			}
			for _, d := range mk(5, 1000) { // prior content, partly evicted by the run
				direct.Emit(d)
				run.Emit(d)
			}
			ds := mk(n, 0)
			orig := slices.Clone(ds)
			for _, d := range ds {
				direct.Emit(d)
			}
			run.EmitRun(ds)
			if want, got := read(direct, &directSink), read(run, &runSink); !reflect.DeepEqual(got, want) {
				t.Errorf("n=%d sink=%v: EmitRun leaves %+v, %d Emits leave %+v", n, withSink, got, n, want)
			}
			if !reflect.DeepEqual(ds, orig) {
				t.Errorf("n=%d sink=%v: EmitRun modified its argument", n, withSink)
			}
		}
	}
	var nilTracer *Tracer
	nilTracer.EmitRun(mk(3, 0))
}

func TestHTTPHandlers(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up", "h").Inc()
	srv := httptest.NewServer(MetricsHandler(reg))
	defer srv.Close()
	resp := httptest.NewRecorder()
	MetricsHandler(reg).ServeHTTP(resp, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(resp.Body.String(), "up 1") {
		t.Errorf("metrics body:\n%s", resp.Body.String())
	}

	tr := NewTracer(4)
	tr.Emit(Decision{RequestID: 7, PredictedMs: 3, ActualMs: 3.2})
	rec := httptest.NewRecorder()
	DecisionsHandler(tr, 10).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/decisions", nil))
	var payload struct {
		Total     uint64     `json:"total"`
		Decisions []Decision `json:"decisions"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Total != 1 || len(payload.Decisions) != 1 || payload.Decisions[0].RequestID != 7 {
		t.Errorf("payload = %+v", payload)
	}

	rec2 := httptest.NewRecorder()
	DecisionsHandler(tr, 10).ServeHTTP(rec2, httptest.NewRequest("GET", "/debug/decisions?n=bogus", nil))
	if rec2.Code != 400 {
		t.Errorf("bad n: status %d", rec2.Code)
	}
}

// TestTracerConcurrentEmitSeqOrder: Seq assignment and the ring push share
// one critical section, so concurrent emitters (the aggregator's request
// goroutines) can never land in the ring out of Seq order. Run under -race.
func TestTracerConcurrentEmitSeqOrder(t *testing.T) {
	const emitters, each = 8, 500
	tr := NewTracer(emitters * each)
	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tr.Emit(Decision{RequestID: g*each + i, PredictedMs: 5, ActualMs: 6})
			}
		}(g)
	}
	wg.Wait()
	ds := tr.Ring().Snapshot(0)
	if len(ds) != emitters*each || tr.Emitted() != emitters*each || tr.Quality().N != emitters*each {
		t.Fatalf("ring %d, emitted %d, audited %d", len(ds), tr.Emitted(), tr.Quality().N)
	}
	for i, d := range ds {
		if d.Seq != uint64(i+1) {
			t.Fatalf("ring slot %d holds seq %d: out of order", i, d.Seq)
		}
	}
}

// TestTracerEmitAllocFree: without a sink an Emit stays on the stack; only an
// attached JSONL sink makes the encoder's copy escape.
func TestTracerEmitAllocFree(t *testing.T) {
	tr := NewTracer(16)
	d := Decision{Policy: "gemini", RequestID: 1, PredictedMs: 5, PredErrMs: 1, ActualMs: 5.5, CriticalID: -1}
	if allocs := testing.AllocsPerRun(200, func() { tr.Emit(d) }); allocs != 0 {
		t.Errorf("Emit without a sink allocates %.1f per call", allocs)
	}
}
