package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gemini/internal/corpus"
	"gemini/internal/index"
	"gemini/internal/search"
	"gemini/internal/telemetry"
)

// sampleNow seals one timeline window by hand and returns its row.
func sampleNow(s *TimelineSampler) telemetry.TimeseriesRow {
	s.sample()
	rows := s.Series().Rows()
	return rows[len(rows)-1]
}

// TestISNTimelineRow reads a live ISN's timeline row. Two requests arrive
// on a one-slot queue: the second is shed, the first is answered after its
// budget ran out. One sample over that traffic counts both arrivals, the
// late completion as an SLO violation, the shed as a drop and the two-deep
// queue as the high-water mark; and it has no frequency levels and zero
// power, since the live ISN runs no DVFS model.
func TestISNTimelineRow(t *testing.T) {
	c := corpus.Generate(corpus.SmallSpec())
	eng := search.NewEngine(index.Build(c), search.DefaultK)
	isn := NewISN(0, c, eng, search.DefaultCostModel())
	isn.queue = make(chan isnTask, 1)
	isn.started.Do(func() {}) // the test stands in for the working thread
	isn.BudgetMs = 20
	isn.Service, isn.ErrPred = stubService{ms: 1}, stubError{ms: 0}
	isn.Tracer = telemetry.NewTracer(4)        // observe runs in full
	sampler := isn.StartTimeline(time.Hour, 4) // sampled by hand below
	defer sampler.Stop()

	post := func() int {
		body, _ := json.Marshal(SearchRequest{Query: "canada"})
		w := httptest.NewRecorder()
		isn.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body)))
		return w.Code
	}
	first := make(chan int, 1)
	go func() { first <- post() }()
	for deadline := time.Now().Add(5 * time.Second); len(isn.queue) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("first request never reached the queue")
		}
	}
	if code := post(); code != http.StatusServiceUnavailable {
		t.Fatalf("second request: status %d, want 503", code)
	}
	time.Sleep(30 * time.Millisecond) // the queued request is now past its 20 ms budget
	task := <-isn.queue
	task.resp <- isn.execute(task)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("first request: status %d, want 200", code)
	}
	time.Sleep(time.Millisecond) // the window has a measurable length

	row := sampleNow(sampler)
	if row.Arrivals != 2 || row.Completions != 1 || row.Drops != 1 || row.SLOViolations != 1 || row.QueueHighWater != 2 {
		t.Errorf("arrivals %d completions %d drops %d slo_violations %d queue_high_water %v, want 2 1 1 1 2",
			row.Arrivals, row.Completions, row.Drops, row.SLOViolations, row.QueueHighWater)
	}
	if row.QueueDepth != 0 || row.InFlight != 0 || row.P50Ms <= 20 || row.Goroutines <= 0 {
		t.Errorf("depth %v in-flight %v p50 %v ms goroutines %v, want 0, 0, past the budget, running",
			row.QueueDepth, row.InFlight, row.P50Ms, row.Goroutines)
	}
	if levels := sampler.Series().FreqsGHz(); len(levels) != 0 || len(row.Residency) != 0 || row.PowerW != 0 {
		t.Errorf("levels %v residency %v power %v W, want none, none and 0", levels, row.Residency, row.PowerW)
	}

	// The next window opens empty.
	time.Sleep(time.Millisecond)
	next := sampleNow(sampler)
	if next.Arrivals != 0 || next.Completions != 0 || next.Drops != 0 || next.QueueHighWater != 0 || len(next.Residency) != 0 || next.PowerW != 0 {
		t.Errorf("second window: %+v, want no traffic, no residency and no power", next)
	}
}
