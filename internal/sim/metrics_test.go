package sim

import (
	"math/rand"
	"sort"
	"testing"

	"gemini/internal/cpu"
	"gemini/internal/telemetry"
)

// TestLatenciesSortedContract asserts the Result.Latencies sealed contract:
// sorted ascending regardless of the order completions were recorded in.
func TestLatenciesSortedContract(t *testing.T) {
	// Direct seal path: record latencies badly out of order.
	r := newResult("test", &Workload{})
	for _, lat := range []float64{9, 1, 30, 4, 2} {
		r.recordCompletion(&Request{ArrivalMs: 0, FinishMs: lat, DeadlineMs: 100, Done: true})
	}
	r.seal(cpu.NewEnergyAccumulator(cpu.DefaultPowerModel()), 0, 100)
	if !sort.Float64sAreSorted(r.Latencies) {
		t.Fatalf("seal left Latencies unsorted: %v", r.Latencies)
	}
	if r.TailLatencyMs(100) != 30 || r.TailLatencyMs(0) != 1 {
		t.Errorf("percentiles off a sorted result: p0=%v p100=%v", r.TailLatencyMs(0), r.TailLatencyMs(100))
	}

	// Full run path: a bursty workload completes requests in arrival order
	// but with wildly varying latencies; the returned Result must be sorted.
	rng := rand.New(rand.NewSource(7))
	wl := &Workload{BudgetMs: 40}
	at := 0.0
	for i := 0; i < 400; i++ {
		at += rng.ExpFloat64() * 8
		w := cpu.Work((1 + rng.Float64()*25) * 2.7)
		wl.Requests = append(wl.Requests, &Request{
			ID: i, BaseWork: w, WorkTotal: w,
			ArrivalMs: at, DeadlineMs: at + 40,
		})
	}
	wl.DurationMs = at + 200
	res := Run(DefaultConfig(), wl, &FixedPolicy{F: 1.4})
	if len(res.Latencies) == 0 {
		t.Fatal("no latencies recorded")
	}
	if !sort.Float64sAreSorted(res.Latencies) {
		t.Fatal("Run returned unsorted Latencies")
	}
}

// traceWorkload builds a small deterministic stream for tracer tests.
func traceWorkload(n int, seed int64) *Workload {
	rng := rand.New(rand.NewSource(seed))
	wl := &Workload{BudgetMs: 40}
	at := 0.0
	for i := 0; i < n; i++ {
		at += rng.ExpFloat64() * 20
		w := cpu.Work((2 + rng.Float64()*18) * 2.7)
		wl.Requests = append(wl.Requests, &Request{
			ID: i, BaseWork: w, WorkTotal: w,
			ArrivalMs: at, DeadlineMs: at + 40,
		})
	}
	wl.DurationMs = at + 100
	return wl
}

// TestTracerEmitsOneDecisionPerRequest checks the sim-side decision trace:
// one record per request, outcome fields filled, energy and transitions
// attributed.
func TestTracerEmitsOneDecisionPerRequest(t *testing.T) {
	wl := traceWorkload(200, 3)
	tr := telemetry.NewTracer(1024)
	cfg := DefaultConfig()
	cfg.Tracer = tr
	res := Run(cfg, wl, &FixedPolicy{F: cpu.FDefault})

	if got := int(tr.Emitted()); got != res.Completed+res.Dropped {
		t.Fatalf("decisions = %d, want completed+dropped = %d", got, res.Completed+res.Dropped)
	}
	var energy float64
	for _, d := range tr.Ring().Snapshot(0) {
		if d.StartFreqGHz != float64(cpu.FDefault) {
			t.Fatalf("start freq = %v", d.StartFreqGHz)
		}
		if d.ServiceMs <= 0 || d.ActualMs <= 0 || d.EnergyMJ <= 0 {
			t.Fatalf("outcome fields missing: %+v", d)
		}
		if d.LatencyMs < d.ServiceMs-1e-9 {
			t.Fatalf("latency %v < service %v", d.LatencyMs, d.ServiceMs)
		}
		if d.QueueDepth < 1 {
			t.Fatalf("queue depth = %d", d.QueueDepth)
		}
		if d.Policy != "fixed" {
			t.Fatalf("policy = %q", d.Policy)
		}
		energy += d.EnergyMJ
	}
	// Attributed energy is the busy-time share of the run's total.
	if energy <= 0 || energy > res.EnergyMJ+1e-6 {
		t.Errorf("attributed energy %v vs run total %v", energy, res.EnergyMJ)
	}
}

// TestTracePlanAnnotatesPending verifies the policy-side TracePlan hook and
// that a run without a tracer (the default) emits nothing and keeps working.
func TestTracePlanAnnotatesPending(t *testing.T) {
	wl := traceWorkload(50, 5)
	tr := telemetry.NewTracer(64)
	cfg := DefaultConfig()
	cfg.Tracer = tr
	pol := &hookPolicy{
		init: func(s *Sim) { s.SetFreq(cpu.FDefault) },
		onStart: func(s *Sim, r *Request) {
			if !s.TraceEnabled() {
				t.Error("TraceEnabled false with tracer attached")
			}
			s.TracePlan(r, 1.8, cpu.FDefault, s.Now()+5, -1)
		},
	}
	Run(cfg, wl, pol)
	ds := tr.Ring().Snapshot(0)
	if len(ds) == 0 {
		t.Fatal("no decisions")
	}
	for _, d := range ds {
		if d.InitialFreqGHz != 1.8 || d.BoostFreqGHz != float64(cpu.FDefault) || d.BoostAtMs <= 0 {
			t.Fatalf("plan fields not annotated: %+v", d)
		}
	}

	// No tracer: TracePlan is a cheap no-op.
	wl2 := traceWorkload(50, 5)
	noTrace := &hookPolicy{
		init: func(s *Sim) { s.SetFreq(cpu.FDefault) },
		onStart: func(s *Sim, r *Request) {
			if s.TraceEnabled() {
				t.Error("TraceEnabled true without tracer")
			}
			s.TracePlan(r, 1.8, cpu.FDefault, s.Now()+5, -1)
		},
	}
	res := Run(DefaultConfig(), wl2, noTrace)
	if res.Completed == 0 {
		t.Fatal("run without tracer broke")
	}
}

// TestTracerDropsEmitted checks dropped requests are traced as drops.
func TestTracerDropsEmitted(t *testing.T) {
	wl := traceWorkload(40, 9)
	tr := telemetry.NewTracer(64)
	cfg := DefaultConfig()
	cfg.Tracer = tr
	dropEvery := 0
	pol := &hookPolicy{
		init: func(s *Sim) { s.SetFreq(cpu.FDefault) },
		onArrival: func(s *Sim, r *Request) {
			dropEvery++
			if dropEvery%4 == 0 {
				s.Drop(r)
			}
		},
	}
	res := Run(cfg, wl, pol)
	if res.Dropped == 0 {
		t.Fatal("test needs drops")
	}
	drops := 0
	for _, d := range tr.Ring().Snapshot(0) {
		if d.Dropped {
			drops++
			if !d.Violated {
				t.Error("dropped decision not marked violated")
			}
			if d.ServiceMs != 0 {
				t.Errorf("dropped-before-start decision has service time %v", d.ServiceMs)
			}
		}
	}
	if drops != res.Dropped {
		t.Errorf("traced drops = %d, want %d", drops, res.Dropped)
	}
}

// TestTelemetryDisabledAddsNoAllocsPerRequest is the benchmark guard of the
// issue: with no tracer attached the simulator's per-request marginal
// allocation count must not grow. We measure Run over n and 2n requests and
// require the per-request delta to be ~zero: Latencies is sized once, so the
// only appends that can grow are the engine's own queue reuse.
func TestTelemetryDisabledAddsNoAllocsPerRequest(t *testing.T) {
	cfg := DefaultConfig()
	const n = 600
	wlA := traceWorkload(n, 11)
	wlB := traceWorkload(2*n, 11)
	reset := resetWorkload
	pol := &FixedPolicy{F: cpu.FDefault}
	allocsA := testing.AllocsPerRun(20, func() { reset(wlA); Run(cfg, wlA, pol) })
	allocsB := testing.AllocsPerRun(20, func() { reset(wlB); Run(cfg, wlB, pol) })
	perReq := (allocsB - allocsA) / float64(n)
	if perReq > 0.05 {
		t.Errorf("telemetry-disabled path allocates %.3f allocs/request (n: %.0f, 2n: %.0f)",
			perReq, allocsA, allocsB)
	}
}

// TestRunAllocationPins holds the machine-independent cost of one sim.Run:
// whole-run allocation counts on the benchmarks' workload, with no sink and
// with each sink attached, may not exceed the pinned counts. It is the
// one-second feedback for the ledger's slow gate (go run ./bench): sim_sweep
// is ≈6 800 allocations per grid over 195 core-runs, so a single extra
// allocation per Run reads +2.9 % allocs_per_op there against a 2 % bound.
// Lower a pin when a change removes allocations; raising one needs a reason.
func TestRunAllocationPins(t *testing.T) {
	wl := BenchWorkload(2000, 1)
	pol := &FixedPolicy{F: cpu.FDefault}
	for _, tc := range []struct {
		name string
		max  float64
		with func(*Config)
	}{
		{"no sink", 9, func(*Config) {}},
		{"Tracer(256)", 10, func(c *Config) { c.Tracer = telemetry.NewTracer(256) }},
		{"Series 100 ms", 14, func(c *Config) { c.Series = NewRunTimeseries(c.Ladder, wl.DurationMs, 100) }},
		{"Spans(256)", 270, func(c *Config) { c.Spans = telemetry.NewSpanTracer(256) }},
	} {
		cfg := DefaultConfig()
		tc.with(&cfg)
		got := testing.AllocsPerRun(10, func() { resetWorkload(wl); Run(cfg, wl, pol) })
		if got > tc.max {
			t.Errorf("%s: sim.Run allocates %.0f times, pinned at %.0f", tc.name, got, tc.max)
		}
	}

	// A sharded 3×2 topology run with all three sinks: the merge reads the
	// cores' sealed windows in place, so five times the sample rows costs no
	// more allocations (slack for the merge's window buffer growing).
	topo := func(intervalMs float64) float64 {
		cfg := DefaultConfig()
		cfg.Tracer = telemetry.NewTracer(256)
		cfg.Spans = telemetry.NewSpanTracer(256)
		cfg.Series = NewRunTimeseries(cfg.Ladder, wl.DurationMs, intervalMs)
		tc := TopologyConfig{Sim: cfg, Topology: Topology{Shards: 3, ReplicasPerShard: 2}, Seed: 1}
		return testing.AllocsPerRun(5, func() {
			RunTopologyWorkers(tc, wl, 2, func(int) Policy { return &FixedPolicy{F: cpu.FDefault} })
		})
	}
	if coarse, fine := topo(50), topo(10); fine > coarse+4 {
		t.Errorf("3×2 topology with every sink: %.0f allocations at 50 ms samples, %.0f at 10 ms", coarse, fine)
	}
}
