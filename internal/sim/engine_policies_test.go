package sim_test

import (
	"reflect"
	"slices"
	"strconv"
	"testing"

	"gemini/internal/harness"
	"gemini/internal/policy"
	"gemini/internal/sim"
	"gemini/internal/trace"
)

// TestCachedPredictionsMatchLive holds markCached to its word: a Gemini run
// that reads (S*, E*) from the platform's pool-indexed table equals, field
// for field, the same run with both networks evaluated on every arrival, on
// one ISN and on the 12-core broker cluster.
func TestCachedPredictionsMatchLive(t *testing.T) {
	p := harness.Shared(true)
	const durationMs = 8_000
	live := func() *policy.Gemini { return policy.NewGemini(p.Classifier, p.ErrPred) }
	if g := p.MustPolicy("Gemini").(*policy.Gemini); !g.UseCachedService || !g.UseCachedErr || live().UseCachedService {
		t.Fatal("the platform's Gemini does not read the table, or a fresh one does")
	}

	cfg := p.SimConfig()
	single := func(pol sim.Policy) *sim.Result {
		tr := trace.GenFixedRPS(100*p.Opt.ShardFraction, durationMs, 3)
		return sim.Run(cfg, p.Workload(tr.Arrivals, durationMs, 5), pol)
	}
	want := single(live())
	got := single(p.MustPolicy("Gemini"))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("single-ISN results differ:\n got %+v\nwant %+v", got, want)
	}
	for i, r := range got.Requests {
		if w := want.Requests[i]; r.PredictedMs != w.PredictedMs || r.PredErrMs != w.PredErrMs {
			t.Fatalf("request %d predicted (%v, %v) from the table, (%v, %v) live",
				i, r.PredictedMs, r.PredErrMs, w.PredictedMs, w.PredErrMs)
		}
	}

	cluster := func(mk func(int) sim.Policy) *sim.ClusterResult {
		tr := trace.GenFixedRPS(100*p.Opt.ShardFraction*12, durationMs, 4)
		return sim.RunClusterWorkers(cfg, p.Workload(tr.Arrivals, durationMs, 6), 12, 2, mk)
	}
	wantC := cluster(func(int) sim.Policy { return live() })
	gotC := cluster(func(int) sim.Policy { return p.MustPolicy("Gemini") })
	if !reflect.DeepEqual(gotC, wantC) {
		t.Errorf("12-core cluster results differ: got %d events, %v mJ; want %d events, %v mJ",
			gotC.Events, gotC.EnergyMJ, wantC.Events, wantC.EnergyMJ)
	}
}

// populationProbe wraps a policy and records the largest pending-event
// population any callback saw, before or after the policy acted in it.
type populationProbe struct {
	sim.Policy
	max int
}

// around runs one callback of the wrapped policy and counts pending events on
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

// TestEventPopulationStaysSmall pins the traffic the engine's scan is sized
// for. Every policy the platform can build runs alone and on a capped,
// sampled topology, and a core may never have more than three events
// pending: the policy's timer, its planned step and the timeline sampler's
// timer. Ceiling steps are read from the core's schedule and are not counted.
func TestEventPopulationStaysSmall(t *testing.T) {
	p := harness.Shared(true)
	const durationMs = 8_000
	const limit = 3
	check := func(name, where string, n int) {
		t.Helper()
		if n > limit {
			t.Errorf("%s, %s: %d events pending at once, more than the %d (policy timer + planned step + sampler timer) "+
				"the engine's full scan per dispatch is sized for: every pending event is read on every dispatch. DESIGN.md §9 "+
				"gives the measurements behind that choice and what a heap or calendar queue buys at dozens pending per core: "+
				"reopen it there, do not raise this limit.", name, where, n, limit)
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
			t.Errorf("%s: the %.1f W cap never bound, so no core ran under a ceiling", name, tc.PowerCapW)
		}
		for c, probe := range probes {
			check(name, "capped 2x2 topology, core "+strconv.Itoa(c), probe.max)
		}
	}
}

// TestRerunGivesSameResult: no run writes to the workload it reads, so a
// platform-built workload gives the same result however often and by
// whichever runner it is run: twice through each runner, each on a workload
// of its own, and through Run after the cluster runs.
func TestRerunGivesSameResult(t *testing.T) {
	p := harness.Shared(true)
	const durationMs = 20_000
	tr := trace.GenFixedRPS(60*p.Opt.ShardFraction*12, durationMs, 3)
	workload := func() *sim.Workload { return p.Workload(tr.Arrivals, durationMs, 3) }
	cfg := p.SimConfig()
	mk := func(int) sim.Policy { return p.MustPolicy("Gemini") }
	topo := sim.Topology{Shards: 2, ReplicasPerShard: 6}
	tc := sim.TopologyConfig{
		Sim: cfg, Topology: topo, Router: sim.RouterPowerAware{}, Seed: 3,
		PowerCapW: sim.ClusterFloorW(cfg.Power, cfg.Ladder, topo.Cores()) + 4,
	}

	wl := workload()
	first := sim.Run(cfg, wl, mk(0))
	if again := sim.Run(cfg, wl, mk(0)); !reflect.DeepEqual(again, first) {
		t.Errorf("Run, second time: %d events, %d completions; first %d, %d",
			again.Events, again.Completed, first.Events, first.Completed)
	}
	wl = workload()
	c1 := sim.RunClusterWorkers(cfg, wl, 12, 2, mk)
	if c2 := sim.RunClusterWorkers(cfg, wl, 12, 2, mk); !reflect.DeepEqual(c2, c1) {
		t.Errorf("RunClusterWorkers, second time: %d events, %d completions; first %d, %d",
			c2.Events, c2.Completed, c1.Events, c1.Completed)
	}
	if after := sim.Run(cfg, wl, mk(0)); !reflect.DeepEqual(after, first) {
		t.Errorf("Run after RunClusterWorkers: %d events, %d completions; on a fresh workload %d, %d",
			after.Events, after.Completed, first.Events, first.Completed)
	}
	wl = workload()
	t1 := sim.RunTopologyWorkers(tc, wl, 2, mk)
	if t2 := sim.RunTopologyWorkers(tc, wl, 2, mk); !reflect.DeepEqual(t2, t1) {
		t.Errorf("RunTopologyWorkers, second time: %d events, %d completions; first %d, %d",
			t2.Events, t2.Completed, t1.Events, t1.Completed)
	}
	if first.Completed == 0 || c1.Completed == 0 || t1.Completed == 0 || t1.CapThrottles == 0 {
		t.Fatalf("the runs did too little to compare: %d, %d, %d completions, %d throttles",
			first.Completed, c1.Completed, t1.Completed, t1.CapThrottles)
	}
}

// TestShardIsFullReplicaToday holds what a shard is today: every shard's leg
// of a query runs the whole query's work with the same draw, so an S×1
// topology's cores each simulate sim.Run's stream, and its query latencies,
// violations and drops are sim.Run's. The fan-out cannot straggle. A
// partitioned index, where each shard serves its own part of the work,
// removes this property. Each core's latencies, kept in completion order on a
// multi-shard run, sort to sim.Run's.
func TestShardIsFullReplicaToday(t *testing.T) {
	p := harness.Shared(true)
	const durationMs = 8_000
	cfg := p.SimConfig()
	tr := trace.GenFixedRPS(100*p.Opt.ShardFraction, durationMs, 3)
	for _, name := range []string{"Baseline", "Gemini"} {
		want := sim.Run(cfg, p.Workload(tr.Arrivals, durationMs, 5), p.MustPolicy(name))
		if want.Completed < 100 {
			t.Fatalf("%s: sim.Run completed %d requests, too few to compare", name, want.Completed)
		}
		for _, shards := range []int{1, 4, 8} {
			tc := sim.TopologyConfig{Sim: cfg, Topology: sim.Topology{Shards: shards, ReplicasPerShard: 1}}
			got := sim.RunTopologyWorkers(tc, p.Workload(tr.Arrivals, durationMs, 5), 2, func(int) sim.Policy { return p.MustPolicy(name) })
			what := name + " on " + strconv.Itoa(shards) + "x1"
			if !reflect.DeepEqual(got.QueryLatencies, want.Latencies) ||
				got.Violations != want.Violations || got.Dropped != want.Dropped || got.Completed != want.Completed {
				t.Errorf("%s: %d completed, %d violations, %d drops; sim.Run %d, %d, %d",
					what, got.Completed, got.Violations, got.Dropped, want.Completed, want.Violations, want.Dropped)
			}
			for c, res := range got.PerCore {
				lat := slices.Clone(res.Latencies)
				slices.Sort(lat)
				if !reflect.DeepEqual(lat, want.Latencies) {
					t.Errorf("%s: core %d's latencies, sorted, are not sim.Run's", what, c)
				}
			}
		}
	}
}
