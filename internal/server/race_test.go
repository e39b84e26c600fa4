package server

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"gemini/internal/telemetry"
)

// TestTracePropagationConcurrent drives many sampled queries through the
// aggregator at once and checks every stitched waterfall independently:
// distinct trace IDs, one root query span per trace, shard fan-out legs and
// their rebased ISN children nested inside the root, and a merge span
// closing the trace. Under -race (the CI server race step) this also pins
// the fan-out design: per-leg send/receive offsets are recorded in the
// fan-out goroutines and handed over via the replies channel, so span
// assembly must not race with in-flight legs.
func TestTracePropagationConcurrent(t *testing.T) {
	_, _, urls := testCluster(t, 2)
	agg := NewAggregator(urls, 10)
	agg.Spans = telemetry.NewSpanTracer(4096)
	agg.Tracer = telemetry.NewTracer(1024)
	agg.TraceSample = 1

	const workers, perWorker = 8, 4
	ids := make(chan string, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < perWorker; q++ {
				resp, err := agg.Search(context.Background(), "united kingdom")
				if err != nil {
					t.Error(err)
					return
				}
				ids <- resp.TraceID
			}
		}()
	}
	wg.Wait()
	close(ids)

	seen := map[string]bool{}
	for id := range ids {
		if id == "" {
			t.Fatal("sampled query returned no trace id")
		}
		if seen[id] {
			t.Fatalf("trace id %q issued twice", id)
		}
		seen[id] = true
	}
	if len(seen) != workers*perWorker {
		t.Fatalf("got %d trace ids, want %d", len(seen), workers*perWorker)
	}

	views := agg.Spans.Traces(0)
	if len(views) != workers*perWorker {
		t.Fatalf("stitched traces = %d, want %d", len(views), workers*perWorker)
	}
	for _, v := range views {
		if !seen[v.TraceID] {
			t.Fatalf("trace %q was never issued to a caller", v.TraceID)
		}
		var root *telemetry.Span
		byID := map[string]telemetry.Span{}
		shardLegs, merges, isnChildren := 0, 0, 0
		for i := range v.Spans {
			sp := v.Spans[i]
			if sp.TraceID != v.TraceID {
				t.Fatalf("trace %q contains span of trace %q", v.TraceID, sp.TraceID)
			}
			byID[sp.SpanID] = sp
			switch {
			case sp.SpanID == "query":
				root = &v.Spans[i]
			case sp.Name == "shard":
				shardLegs++
			case sp.Name == "merge":
				merges++
			case strings.HasPrefix(sp.Name, "isn-"):
				isnChildren++
			}
		}
		if root == nil {
			t.Fatalf("trace %q has no root query span", v.TraceID)
		}
		if shardLegs != 2 || merges != 1 {
			t.Fatalf("trace %q: %d shard legs, %d merge spans; want 2 and 1",
				v.TraceID, shardLegs, merges)
		}
		if isnChildren < 2*3 {
			t.Fatalf("trace %q: %d rebased ISN spans, want >= 6", v.TraceID, isnChildren)
		}
		const slackMs = 1e-6 // float rounding from µs→ms conversions
		for _, sp := range v.Spans {
			if sp.SpanID == "query" {
				continue
			}
			// Modeled DVFS phases carry predicted durations at the planned
			// frequency, not wall time; when the real execution beats the
			// model they extend past the root's wall-clock end by design.
			wallBound := !strings.Contains(sp.Name, "-model-")
			if sp.StartMs < -slackMs || (wallBound && sp.EndMs > root.EndMs+slackMs) {
				t.Fatalf("trace %q: span %s/%s [%v, %v] outside root [0, %v]",
					v.TraceID, sp.Name, sp.SpanID, sp.StartMs, sp.EndMs, root.EndMs)
			}
			// Rebased ISN children must start at or after their shard leg's
			// send offset — the rebase is exactly that shift.
			if strings.HasPrefix(sp.Name, "isn-") && sp.ParentID != "" {
				if leg, ok := byID[sp.ParentID]; ok && leg.Name == "shard" &&
					sp.StartMs < leg.StartMs-slackMs {
					t.Fatalf("trace %q: ISN span %s starts %v before shard send %v",
						v.TraceID, sp.SpanID, sp.StartMs, leg.StartMs)
				}
			}
		}
	}
	if got := agg.Tracer.Emitted(); got != workers*perWorker {
		t.Fatalf("decision trace emitted %d, want %d", got, workers*perWorker)
	}
}

// TestStragglerStitchingConcurrent exercises partial aggregation under
// concurrency: one healthy shard, one shard that always blows the fan-out
// deadline. Every sampled query must return without the straggler, and its
// waterfall must carry exactly one straggler span closed at the trace end.
func TestStragglerStitchingConcurrent(t *testing.T) {
	_, _, urls := testCluster(t, 1)
	slow := newSlowShard(t, 2*time.Second)
	agg := NewAggregator([]string{urls[0], slow}, 10)
	agg.Policy = Partial
	agg.Quorum = 1
	agg.Timeout = 50 * time.Millisecond
	agg.Spans = telemetry.NewSpanTracer(2048)
	agg.TraceSample = 1

	const workers, perWorker = 4, 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < perWorker; q++ {
				resp, err := agg.Search(context.Background(), "canada")
				if err != nil {
					t.Error(err)
					return
				}
				if resp.ShardsResponded != 1 {
					t.Errorf("shards responded = %d, want 1", resp.ShardsResponded)
				}
				if resp.Stragglers != 1 {
					t.Errorf("stragglers = %d, want 1", resp.Stragglers)
				}
			}
		}()
	}
	wg.Wait()

	views := agg.Spans.Traces(0)
	if len(views) != workers*perWorker {
		t.Fatalf("stitched traces = %d, want %d", len(views), workers*perWorker)
	}
	for _, v := range views {
		stragglerSpans := 0
		var rootEnd float64
		for _, sp := range v.Spans {
			if sp.SpanID == "query" {
				rootEnd = sp.EndMs
			}
		}
		for _, sp := range v.Spans {
			if sp.Name != "straggler" {
				continue
			}
			stragglerSpans++
			if sp.Attr("shard") != 1 {
				t.Errorf("trace %q: straggler span names shard %v, want 1",
					v.TraceID, sp.Attr("shard"))
			}
			if sp.EndMs != rootEnd {
				t.Errorf("trace %q: straggler span ends at %v, trace root at %v",
					v.TraceID, sp.EndMs, rootEnd)
			}
		}
		if stragglerSpans != 1 {
			t.Errorf("trace %q: %d straggler spans, want 1", v.TraceID, stragglerSpans)
		}
	}
}

// TestTimelineSamplersConcurrent drives queries from several goroutines while
// the aggregator's and an ISN's samplers tick every two milliseconds. Under
// -race this pins each cursor to its listener's lock; the rows must count
// every query exactly once and every ISN row's residency must sum to one.
func TestTimelineSamplersConcurrent(t *testing.T) {
	isns, _, urls := testCluster(t, 2)
	agg := NewAggregator(urls, 10)
	aggTL := agg.StartTimeline(2*time.Millisecond, 100_000)
	isnTL := isns[0].StartTimeline(2*time.Millisecond, 100_000)
	defer aggTL.Stop()
	defer isnTL.Stop()

	const workers, perWorker = 8, 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < perWorker; q++ {
				if _, err := agg.Search(context.Background(), "united kingdom"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, s := range []*TimelineSampler{aggTL, isnTL} {
		// Two more rows: at least one window sealed after the last query.
		for settled := s.Series().Total() + 2; s.Series().Total() < settled; time.Sleep(time.Millisecond) {
		}
		s.Stop()
	}

	for name, s := range map[string]*TimelineSampler{"aggregator": aggTL, "isn-0": isnTL} {
		var arrivals, completions uint64
		for _, row := range s.Series().Rows() {
			arrivals += row.Arrivals
			completions += row.Completions
			if name == "isn-0" {
				sum := 0.0
				for _, r := range row.Residency {
					sum += r
				}
				if math.Abs(sum-1) > 1e-6 {
					t.Fatalf("%s row at %v ms: residency sums to %v", name, row.TimeMs, sum)
				}
			}
		}
		if arrivals != workers*perWorker || completions != workers*perWorker {
			t.Errorf("%s rows count %d arrivals and %d completions, want %d each",
				name, arrivals, completions, workers*perWorker)
		}
	}
}
