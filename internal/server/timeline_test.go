package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gemini/internal/corpus"
	"gemini/internal/cpu"
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
// queue as the high-water mark; it reads modeled power; and its residency
// is time-weighted: the default level up to the query's modeled plan, the
// plan's level after it, summing to one.
func TestISNTimelineRow(t *testing.T) {
	c := corpus.Generate(corpus.SmallSpec())
	eng := search.NewEngine(index.Build(c), search.DefaultK)
	isn := NewISN(0, c, eng, search.DefaultCostModel())
	isn.queue = make(chan isnTask, 1)
	isn.started.Do(func() {}) // the test stands in for the working thread
	isn.BudgetMs = 20
	// A short prediction against a long budget plans a low frequency.
	isn.Service, isn.ErrPred = stubService{ms: 1}, stubError{ms: 0}
	isn.Tracer = telemetry.NewTracer(4)        // observe runs the modeled plan
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
	d := isn.Tracer.Ring().Snapshot(0)[0]
	if d.StartFreqGHz >= float64(cpu.FDefault) || d.BoostFreqGHz != 0 {
		t.Fatalf("the modeled plan runs %v GHz, boost %v GHz; the fixture needs one step below the default", d.StartFreqGHz, d.BoostFreqGHz)
	}
	time.Sleep(time.Millisecond) // the plan's level holds for a measurable time

	row := sampleNow(sampler)
	if row.Arrivals != 2 || row.Completions != 1 || row.Drops != 1 || row.SLOViolations != 1 || row.QueueHighWater != 2 {
		t.Errorf("arrivals %d completions %d drops %d slo_violations %d queue_high_water %v, want 2 1 1 1 2",
			row.Arrivals, row.Completions, row.Drops, row.SLOViolations, row.QueueHighWater)
	}
	if row.QueueDepth != 0 || row.InFlight != 0 || row.P50Ms <= 20 || row.PowerW <= 0 || row.Goroutines <= 0 {
		t.Errorf("depth %v in-flight %v p50 %v ms power %v W goroutines %v, want 0, 0, past the budget, drawn, running",
			row.QueueDepth, row.InFlight, row.P50Ms, row.PowerW, row.Goroutines)
	}
	sum := 0.0
	for _, r := range row.Residency {
		sum += r
	}
	planned := isn.ladder.Index(cpu.Freq(d.StartFreqGHz))
	if math.Abs(sum-1) > 1e-6 || row.Residency[isn.ladder.Index(cpu.FDefault)] <= 0 || row.Residency[planned] <= 0 {
		t.Errorf("residency %v: want shares at the default level and at level %d, summing to 1", row.Residency, planned)
	}

	// The next window opens empty and holds the plan's level throughout.
	time.Sleep(time.Millisecond)
	next := sampleNow(sampler)
	if next.Arrivals != 0 || next.Completions != 0 || next.Drops != 0 || next.QueueHighWater != 0 || next.Residency[planned] != 1 {
		t.Errorf("second window: %+v, want no traffic and all time at level %d", next, planned)
	}
}
