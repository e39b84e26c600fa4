package sim

import (
	"reflect"
	"testing"

	"gemini/internal/cpu"
	"gemini/internal/telemetry"
)

// predictingStorm is the tie-storm policy with a prediction stamped on every
// arrival, so the tracer's quality audit has something to fold.
type predictingStorm struct{ tieStormPolicy }

func (p *predictingStorm) OnArrival(s *Sim, r *Request) {
	r.PredictedMs = cpu.TimeFor(r.BaseWork, cpu.FDefault) * (0.8 + 0.05*float64(r.ID%9))
	r.PredErrMs = 1
	p.tieStormPolicy.OnArrival(s, r)
}

func mkPredictingStorm(int) Policy { return &predictingStorm{} }

// sinkState is everything a caller can read back from the two sinks.
type sinkState struct {
	spanTotal uint64
	spans     []telemetry.Span
	emitted   uint64
	decisions []telemetry.Decision
	quality   telemetry.QualitySnapshot
}

func readSinks(cfg Config) sinkState {
	return sinkState{
		spanTotal: cfg.Spans.Total(),
		spans:     cfg.Spans.Spans(),
		emitted:   cfg.Tracer.Emitted(),
		decisions: cfg.Tracer.Ring().Snapshot(0),
		quality:   cfg.Tracer.Quality(),
	}
}

// lastOf is what a bounded sink of the given capacities must hold after the
// emissions full recorded.
func lastOf(full sinkState, spanCap, ringCap int) sinkState {
	out := full
	if n := len(full.spans); n > spanCap {
		out.spans = full.spans[n-spanCap:]
	}
	if n := len(full.decisions); n > ringCap {
		out.decisions = full.decisions[n-ringCap:]
	}
	return out
}

// TestSinkEvictionEquivalence runs a topology and a broker cluster into sinks
// far smaller than what is emitted. Whatever the thread count and engine, the
// sinks must read exactly as the tail of the full emission sequence, which a
// serial run into an accumulator and a ring that never wraps records: the
// deferred span flush and the per-core decision replay may drop only what a
// one-by-one emission would have evicted.
func TestSinkEvictionEquivalence(t *testing.T) {
	const spanCap, ringCap = 97, 31
	runners := map[string]func(cfg Config, workers int){
		"topology": func(cfg Config, workers int) {
			tc := TopologyConfig{
				Sim:       cfg,
				Topology:  Topology{Shards: 3, ReplicasPerShard: 2},
				Router:    RouterPowerAware{},
				Seed:      5,
				PowerCapW: 16,
			}
			RunTopologyWorkers(tc, clusterWorkload(300, 2, 6, 29), workers, mkPredictingStorm)
		},
		"cluster": func(cfg Config, workers int) {
			RunClusterWorkers(cfg, clusterWorkload(500, 2, 6, 31), 8, workers, mkPredictingStorm)
		},
	}
	for name, runIt := range runners {
		for _, linear := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.linear = linear
			cfg.Tracer = telemetry.NewTracer(1 << 16)
			cfg.Spans = telemetry.NewSpanAccumulator()
			runIt(cfg, 1)
			full := readSinks(cfg)
			if int(full.spanTotal) <= 4*spanCap || int(full.emitted) <= 4*ringCap || full.quality.N == 0 {
				t.Fatalf("%s: run too small to evict: %d spans, %d decisions, %d audited",
					name, full.spanTotal, full.emitted, full.quality.N)
			}
			want := lastOf(full, spanCap, ringCap)
			for _, workers := range []int{1, 4} {
				cfg.Tracer = telemetry.NewTracer(ringCap)
				cfg.Spans = telemetry.NewSpanTracer(spanCap)
				runIt(cfg, workers)
				if got := readSinks(cfg); !reflect.DeepEqual(got, want) {
					t.Errorf("%s linear=%v workers=%d: small sinks differ from the tail of the full emission "+
						"(spans %d/%d, decisions %d/%d)", name, linear, workers,
						got.spanTotal, want.spanTotal, got.emitted, want.emitted)
				}
			}
		}
	}
}

// TestCountOnlySpansOracle runs the sharded 8×3 capped cell into span sinks
// small enough that most cores' records can never be retained, so those
// cores only count them. Whatever the capacity, the sink must hold the last B
// spans of an accumulator run of the same cell and count as many: a
// count-only bound that skips a core whose records survive changes the tail,
// or trips flushSpans' check.
func TestCountOnlySpansOracle(t *testing.T) {
	run := func(spans *telemetry.SpanTracer) {
		cfg := DefaultConfig()
		cfg.Spans = spans
		topo := Topology{Shards: 8, ReplicasPerShard: 3}
		tc := TopologyConfig{
			Sim:       cfg,
			Topology:  topo,
			Router:    RouterPowerAware{},
			Seed:      3,
			PowerCapW: 1.1 * ClusterFloorW(cfg.Power, cfg.Ladder, topo.Cores()),
		}
		res := RunTopologyWorkers(tc, clusterWorkload(600, 1, 6, 3), 4, mkPredictingStorm)
		if res.CapThrottles == 0 {
			t.Fatal("the cap never throttled; the fixture is supposed to bind")
		}
	}
	acc := telemetry.NewSpanAccumulator()
	run(acc)
	all := acc.Spans()
	for _, b := range []int{1, 64, 4096} {
		if len(all) <= 2*b {
			t.Fatalf("cap %d: the accumulator holds only %d spans", b, len(all))
		}
		sink := telemetry.NewSpanTracer(b)
		run(sink)
		if sink.Total() != acc.Total() {
			t.Errorf("cap %d: total %d, the accumulator counted %d", b, sink.Total(), acc.Total())
		}
		if got := sink.Spans(); !reflect.DeepEqual(got, all[len(all)-b:]) {
			t.Errorf("cap %d: retained spans differ from the accumulator's last %d", b, b)
		}
	}
}

// TestSharedSinkAcrossRuns hands one pair of sinks to two consecutive runs:
// the second run's flush lands on top of the first's ring content, and the
// result must be the tail of both runs' emissions in order.
func TestSharedSinkAcrossRuns(t *testing.T) {
	const ringCap = 31
	// 150 retains the whole short second run plus a tail of the first; 40
	// retains part of the second run only.
	for _, spanCap := range []int{150, 40} {
		runBoth := func(cfg Config) sinkState {
			Run(cfg, traceWorkload(120, 3), &predictingStorm{})
			Run(cfg, traceWorkload(25, 4), &FixedPolicy{F: cpu.FDefault})
			return readSinks(cfg)
		}
		cfg := DefaultConfig()
		cfg.Tracer = telemetry.NewTracer(1 << 12)
		cfg.Spans = telemetry.NewSpanAccumulator()
		want := lastOf(runBoth(cfg), spanCap, ringCap)

		cfg.Tracer = telemetry.NewTracer(ringCap)
		cfg.Spans = telemetry.NewSpanTracer(spanCap)
		got := runBoth(cfg)
		if len(got.spans) != spanCap {
			t.Fatalf("cap %d: retained %d spans", spanCap, len(got.spans))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("cap %d: shared sinks differ from the tail of both runs' emissions", spanCap)
		}
	}
}

// resetWorkload clears the lifecycle fields so a workload can be run again.
func resetWorkload(wl *Workload) {
	for _, r := range wl.Requests {
		r.Started, r.Done, r.Dropped = false, false, false
		r.StartMs, r.FinishMs, r.WorkDone = 0, 0, 0
	}
}

// sinkAllocsAtSizes measures what attaching cfg's sinks adds to a whole Run's
// allocation count, at n and at 4n requests.
func sinkAllocsAtSizes(cfg Config, n int) (small, large float64) {
	pol := &FixedPolicy{F: cpu.FDefault}
	bare := cfg
	bare.Tracer, bare.Spans = nil, nil
	extra := func(wl *Workload) float64 {
		with := testing.AllocsPerRun(10, func() { resetWorkload(wl); Run(cfg, wl, pol) })
		without := testing.AllocsPerRun(10, func() { resetWorkload(wl); Run(bare, wl, pol) })
		return with - without
	}
	return extra(traceWorkload(n, 11)), extra(traceWorkload(4*n, 11))
}

// TestSpansEnabledAllocsIndependentOfRequests is the property the span log
// exists for: against a sink of fixed capacity, what the sink adds to a run's
// allocation count does not grow with the request count. Both sizes overflow
// the sink, so both build the same number of Spans; the slack covers the
// trace-ID strings, whose count depends on how many requests share the
// retained tail.
func TestSpansEnabledAllocsIndependentOfRequests(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Spans = telemetry.NewSpanTracer(256)
	small, large := sinkAllocsAtSizes(cfg, 600)
	if small <= 0 || large-small > 8 {
		t.Errorf("span sink adds %.0f allocs at n and %.0f at 4n requests", small, large)
	}
}

// TestTracerEnabledAllocsIndependentOfRequests is the decision-sink twin.
func TestTracerEnabledAllocsIndependentOfRequests(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Tracer = telemetry.NewTracer(256)
	small, large := sinkAllocsAtSizes(cfg, 600)
	if small <= 0 || large-small > 2 {
		t.Errorf("decision sink adds %.0f allocs at n and %.0f at 4n requests", small, large)
	}
}
