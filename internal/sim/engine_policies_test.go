package sim_test

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"gemini/internal/harness"
	"gemini/internal/policy"
	"gemini/internal/sim"
	"gemini/internal/trace"
)

// TestPoliciesEngineEquivalent runs every paper policy under both event
// engines on a real platform workload and requires byte-identical results —
// the end-to-end counterpart of this package's differential tests, with the
// actual Gemini/Rubik/Pegasus control flows (timers, planned boosts, clears)
// driving the event queue.
func TestPoliciesEngineEquivalent(t *testing.T) {
	p := harness.Shared(true)
	rng := rand.New(rand.NewSource(11))
	arr := make([]float64, 0, 400)
	at := 0.0
	for i := 0; i < 400; i++ {
		at += rng.ExpFloat64() * 8 // ~125 QPS, enough queueing to matter
		arr = append(arr, at)
	}
	dur := at + 100

	for _, name := range harness.PolicyNames {
		run := func(linear bool) *sim.Result {
			cfg := p.SimConfig()
			sim.SetLinearEngine(&cfg, linear)
			cfg.RecordFreqTrace = true
			wl := p.Workload(arr, dur, 5)
			return sim.Run(cfg, wl, p.MustPolicy(name))
		}
		lin := run(true)
		hp := run(false)
		if !reflect.DeepEqual(lin, hp) {
			t.Errorf("%s: engines diverge:\n  linear: completed=%d dropped=%d events=%d energy=%v p99=%v\n  heap:   completed=%d dropped=%d events=%d energy=%v p99=%v",
				name,
				lin.Completed, lin.Dropped, lin.Events, lin.EnergyMJ, lin.TailLatencyMs(99),
				hp.Completed, hp.Dropped, hp.Events, hp.EnergyMJ, hp.TailLatencyMs(99))
		}
	}
}

// TestCachedPredictionsMatchLive holds markCached to its word: a Gemini run
// that reads (S*, E*) from the platform's pool-indexed table equals, field
// for field, the same run with both networks evaluated on every arrival —
// under both engines, on one ISN and on the 12-core broker cluster.
func TestCachedPredictionsMatchLive(t *testing.T) {
	p := harness.Shared(true)
	const durationMs = 8_000
	live := func() *policy.Gemini { return policy.NewGemini(p.Classifier, p.ErrPred) }
	if g := p.MustPolicy("Gemini").(*policy.Gemini); !g.UseCachedService || !g.UseCachedErr || live().UseCachedService {
		t.Fatal("the platform's Gemini does not read the table, or a fresh one does")
	}

	for _, linear := range []bool{false, true} {
		cfg := p.SimConfig()
		sim.SetLinearEngine(&cfg, linear)

		single := func(pol sim.Policy) (*sim.Result, *sim.Workload) {
			tr := trace.GenFixedRPS(100*p.Opt.ShardFraction, durationMs, 3)
			wl := p.Workload(tr.Arrivals, durationMs, 5)
			return sim.Run(cfg, wl, pol), wl
		}
		want, wantWL := single(live())
		got, gotWL := single(p.MustPolicy("Gemini"))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("linear=%v: single-ISN results differ:\n got %+v\nwant %+v", linear, got, want)
		}
		for i, r := range gotWL.Requests {
			if w := wantWL.Requests[i]; r.PredictedMs != w.PredictedMs || r.PredErrMs != w.PredErrMs {
				t.Fatalf("linear=%v: request %d predicted (%v, %v) from the table, (%v, %v) live",
					linear, i, r.PredictedMs, r.PredErrMs, w.PredictedMs, w.PredErrMs)
			}
		}

		cluster := func(mk func(int) sim.Policy) *sim.ClusterResult {
			tr := trace.GenFixedRPS(100*p.Opt.ShardFraction*12, durationMs, 4)
			return sim.RunClusterWorkers(cfg, p.Workload(tr.Arrivals, durationMs, 6), 12, 2, mk)
		}
		wantC := cluster(func(int) sim.Policy { return live() })
		gotC := cluster(func(int) sim.Policy { return p.MustPolicy("Gemini") })
		if !reflect.DeepEqual(gotC, wantC) {
			t.Errorf("linear=%v: 12-core cluster results differ: got %d events, %v mJ; want %d events, %v mJ",
				linear, gotC.Events, gotC.EnergyMJ, wantC.Events, wantC.EnergyMJ)
		}
	}
}

// populationProbe wraps a policy and records the largest event-queue
// population any callback saw, before or after the policy acted in it.
type populationProbe struct {
	sim.Policy
	max int
}

// around runs one callback of the wrapped policy and looks at the queue on
// both sides of it.
func (p *populationProbe) around(s *sim.Sim, callback func()) {
	before := sim.PendingEvents(s)
	callback()
	p.max = max(p.max, before, sim.PendingEvents(s))
}
func (p *populationProbe) Init(s *sim.Sim) { p.around(s, func() { p.Policy.Init(s) }) }
func (p *populationProbe) OnArrival(s *sim.Sim, r *sim.Request) {
	p.around(s, func() { p.Policy.OnArrival(s, r) })
}
func (p *populationProbe) OnStart(s *sim.Sim, r *sim.Request) {
	p.around(s, func() { p.Policy.OnStart(s, r) })
}
func (p *populationProbe) OnDeparture(s *sim.Sim, r *sim.Request) {
	p.around(s, func() { p.Policy.OnDeparture(s, r) })
}
func (p *populationProbe) OnTimer(s *sim.Sim, tag int64) {
	p.around(s, func() { p.Policy.OnTimer(s, tag) })
}

// TestEventPopulationStaysSmall pins the traffic the event queue is sized
// for. Every policy the platform can build runs alone and on a capped,
// sampled topology, and the queue may never hold more than four events: the
// policy's timer, its planned step, the cap coordinator's timer and the
// timeline sampler's timer.
func TestEventPopulationStaysSmall(t *testing.T) {
	p := harness.Shared(true)
	const durationMs = 8_000
	const limit = 4
	check := func(name, where string, n int) {
		t.Helper()
		if n > limit {
			t.Errorf("%s, %s: %d events pending at once, more than the %d (policy timer + planned step + cap timer + sampler timer) "+
				"the binary heap in eventq.go was chosen for. DESIGN.md §9 gives the measurements behind that choice and what "+
				"a calendar queue buys at dozens pending per core: reopen it there, do not raise this limit.", name, where, n, limit)
		}
	}
	names := append([]string{"Gemini-95th", "EETL", "PACE-oracle", "Gemini+Sleep", "ondemand", "conservative"}, harness.PolicyNames...)
	topo := sim.Topology{Shards: 2, ReplicasPerShard: 2}
	for _, name := range names {
		tr := trace.GenFixedRPS(100*p.Opt.ShardFraction, durationMs, 3)
		alone := &populationProbe{Policy: p.MustPolicy(name)}
		sim.Run(p.SimConfig(), p.Workload(tr.Arrivals, durationMs, 5), alone)
		check(name, "single ISN", alone.max)

		cfg := p.SimConfig()
		cfg.Series = sim.NewRunTimeseries(cfg.Ladder, durationMs, 100)
		tc := sim.TopologyConfig{
			Sim: cfg, Topology: topo, Router: sim.RouterPowerAware{}, Seed: 1,
			PowerCapW: sim.ClusterFloorW(cfg.Power, cfg.Ladder, topo.Cores()) + 4,
		}
		tr = trace.GenFixedRPS(100*p.Opt.ShardFraction*float64(topo.ReplicasPerShard), durationMs, 4)
		probes := make([]*populationProbe, topo.Cores())
		res := sim.RunTopologyWorkers(tc, p.Workload(tr.Arrivals, durationMs, 6), 2, func(c int) sim.Policy {
			probes[c] = &populationProbe{Policy: p.MustPolicy(name)}
			return probes[c]
		})
		if res.CapThrottles == 0 {
			t.Errorf("%s: the %.1f W cap never bound, so no core carried a cap timer", name, tc.PowerCapW)
		}
		for c, probe := range probes {
			check(name, "capped 2x2 topology, core "+strconv.Itoa(c), probe.max)
		}
	}
}
