package sim

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"gemini/internal/cpu"
	"gemini/internal/telemetry"
)

func TestTopologyNormalization(t *testing.T) {
	if c := (Topology{}).Cores(); c != 1 {
		t.Fatalf("zero topology cores = %d", c)
	}
	if c := (Topology{Shards: -2, ReplicasPerShard: 0}).Cores(); c != 1 {
		t.Fatalf("negative topology cores = %d", c)
	}
	topo := Topology{Shards: 3, ReplicasPerShard: 4}
	if topo.Cores() != 12 {
		t.Fatalf("3x4 cores = %d", topo.Cores())
	}
	if topo.Core(2, 3) != 11 || topo.Core(0, 0) != 0 {
		t.Fatal("Core() flat index mapping broken")
	}
}

func TestRouterByName(t *testing.T) {
	for _, name := range RouterNames {
		r, err := RouterByName(name)
		if err != nil || r.Name() != name {
			t.Fatalf("RouterByName(%q) = %v, %v", name, r, err)
		}
	}
	// Short spellings resolve to the same routers.
	for short, long := range map[string]string{
		"rr": "round-robin", "ll": "least-loaded", "deadline": "deadline-aware", "power": "power-aware",
	} {
		r, err := RouterByName(short)
		if err != nil || r.Name() != long {
			t.Fatalf("RouterByName(%q) = %v, %v", short, r, err)
		}
	}
	if _, err := RouterByName("bogus"); err == nil {
		t.Fatal("unknown router did not error")
	}
}

func TestRouterRoundRobinSpreadsEvenly(t *testing.T) {
	wl := clusterWorkload(120, 5, 4, 31)
	tc := TopologyConfig{
		Sim:      DefaultConfig(),
		Topology: Topology{Shards: 2, ReplicasPerShard: 3},
		Router:   RouterRoundRobin{},
	}
	tr := RunTopologyWorkers(tc, wl, 1, func(int) Policy { return &FixedPolicy{F: cpu.FDefault} })
	for c, n := range tr.RouteCounts {
		if n != 40 {
			t.Errorf("core %d got %d of 120 round-robin routes, want 40", c, n)
		}
	}
	if tr.ShardRequests != 240 {
		t.Errorf("shard requests = %d, want queries×shards = 240", tr.ShardRequests)
	}
}

func TestTopologyStragglerAccounting(t *testing.T) {
	// One query fanned over two shards with very different replica backlogs:
	// its latency must be the slowest shard's finish, not the fastest's.
	wl := &Workload{BudgetMs: 40, DurationMs: 200}
	// Pre-load shard 1's only replica with a long request, then send the
	// measured query.
	long := cpu.Work(30 * float64(cpu.FDefault))
	short := cpu.Work(2 * float64(cpu.FDefault))
	wl.Add(0, Draw{Base: long, Work: long})
	wl.Add(1, Draw{Base: short, Work: short})
	tc := TopologyConfig{
		Sim:      DefaultConfig(),
		Topology: Topology{Shards: 2, ReplicasPerShard: 1},
	}
	tr := RunTopologyWorkers(tc, wl, 1, func(int) Policy { return &FixedPolicy{F: cpu.FDefault} })
	if tr.Queries != 2 || tr.Completed != 2 || tr.Dropped != 0 {
		t.Fatalf("accounting: %+v", tr)
	}
	// Query 1 arrives at t=1 behind the 30 ms request on both shards'
	// single replicas: straggler finish 32, latency 31.
	if len(tr.QueryLatencies) != 2 {
		t.Fatalf("latencies = %v", tr.QueryLatencies)
	}
	if got := tr.QueryLatencies[1]; math.Abs(got-31) > 1e-9 {
		t.Errorf("straggler latency = %v, want 31", got)
	}
	if got := tr.QueryLatencies[0]; math.Abs(got-30) > 1e-9 {
		t.Errorf("first query latency = %v, want 30", got)
	}
}

// TestRouterLeastLoadedMatchesBroker holds the broker cluster — a 1×R
// least-loaded topology, and RunClusterWorkers, which is one — to a
// reference that shares none of its routing or merge code: the linear
// first-minimal-index scan's partition, each core's part simulated alone
// through Run, the sorted concatenation of those cores' latencies and their
// summed counts. It must hold exactly, for every R and seed.
func TestRouterLeastLoadedMatchesBroker(t *testing.T) {
	mk := func(int) Policy { return &FixedPolicy{F: cpu.FDefault} }
	for _, replicas := range []int{1, 2, 3, 5, 8} {
		for seed := int64(1); seed <= 5; seed++ {
			wl := clusterWorkload(300, 2, 6, seed)
			var want []*Result
			var lat []float64
			var completed, dropped, violations int
			for _, idx := range dispatchLinearRef(wl, replicas) {
				part := &Workload{BudgetMs: wl.BudgetMs, DurationMs: wl.DurationMs}
				for _, i := range idx {
					part.Add(wl.ArrivalMs[i], wl.Draws[i])
				}
				res := Run(DefaultConfig(), part, mk(0))
				res.Requests = nil // the cluster runners drop theirs
				want = append(want, res)
				lat = append(lat, res.Latencies...)
				completed += res.Completed
				dropped += res.Dropped
				violations += res.Violations
			}
			sort.Float64s(lat)

			tc := TopologyConfig{Sim: DefaultConfig(), Topology: Topology{Shards: 1, ReplicasPerShard: replicas}, Router: RouterLeastLoaded{}}
			tr := RunTopologyWorkers(tc, wl, 1, mk)
			cr := RunClusterWorkers(DefaultConfig(), wl, replicas, 2, mk)
			for name, got := range map[string]*TopologyResult{"topology": tr, "cluster": &cr.TopologyResult} {
				if !reflect.DeepEqual(got.PerCore, want) {
					t.Fatalf("replicas=%d seed=%d: %s cores diverge from the linear broker's parts run alone", replicas, seed, name)
				}
				if !slices.Equal(got.QueryLatencies, lat) {
					t.Fatalf("replicas=%d seed=%d: %s latencies are not the cores' sorted together", replicas, seed, name)
				}
				if got.Completed != completed || got.Dropped != dropped || got.Violations != violations {
					t.Fatalf("replicas=%d seed=%d: %s counts %d/%d/%d, the cores' sum %d/%d/%d", replicas, seed, name,
						got.Completed, got.Dropped, got.Violations, completed, dropped, violations)
				}
			}
			if cr.Total != wl.Len() {
				t.Fatalf("replicas=%d seed=%d: cluster total %d of %d requests", replicas, seed, cr.Total, wl.Len())
			}
		}
	}
}

// runTopoOnce executes one topology run with full telemetry for the
// serial-vs-parallel comparisons.
func runTopoOnce(router Router, capW float64, workers int) (*TopologyResult, []telemetry.Decision, []telemetry.Span) {
	wl := clusterWorkload(400, 2, 6, 23)
	cfg := DefaultConfig()
	cfg.RecordFreqTrace = true
	cfg.Tracer = telemetry.NewTracer(500)
	cfg.Spans = telemetry.NewSpanTracer(16000)
	tc := TopologyConfig{
		Sim:       cfg,
		Topology:  Topology{Shards: 3, ReplicasPerShard: 2},
		Router:    router,
		Seed:      99,
		PowerCapW: capW,
	}
	tr := RunTopologyWorkers(tc, wl, workers, mkCountingPolicy)
	return tr, cfg.Tracer.Ring().Snapshot(0), cfg.Spans.Spans()
}

// TestTopologyWorkersMatchesSerial pins the PR's core determinism claim: the
// sharded topology run is byte-identical to the serial run under EVERY
// router, capped and uncapped — results, query latencies, decision rings,
// and spans. The policy is the tie-storm policy, the nastiest timer/plan
// mix in the repo, so the engine's ceiling steps must interleave with policy
// timers and planned changes the same way on every shard.
func TestTopologyWorkersMatchesSerial(t *testing.T) {
	for _, name := range RouterNames {
		router, err := RouterByName(name)
		if err != nil {
			t.Fatal(err)
		}
		// 16 W binds hard for six cores (modeled floor ≈12.4 W, max ≈22.5 W).
		for _, capW := range []float64{0, 16} {
			for _, workers := range []int{2, 4, 9} {
				trS, decS, spS := runTopoOnce(router, capW, 1)
				trP, decP, spP := runTopoOnce(router, capW, workers)
				if !reflect.DeepEqual(trS, trP) {
					t.Fatalf("router=%s cap=%v workers=%d: topology results diverge from serial",
						name, capW, workers)
				}
				if !reflect.DeepEqual(decS, decP) {
					t.Fatalf("router=%s cap=%v workers=%d: decision traces diverge (%d vs %d)",
						name, capW, workers, len(decS), len(decP))
				}
				if !reflect.DeepEqual(spS, spP) {
					t.Fatalf("router=%s cap=%v workers=%d: span traces diverge (%d vs %d)",
						name, capW, workers, len(spS), len(spP))
				}
			}
		}
	}
}

// TestTopologyRoutingDrawsIsolated proves the partitioned-RNG contract at the
// topology level: RouterPowerAware draws from the routing stream, and those
// draws must not perturb a workload built from the same base seed.
func TestTopologyRoutingDrawsIsolated(t *testing.T) {
	const seed = 7
	before := BenchWorkload(200, seed)

	wl := clusterWorkload(200, 3, 5, seed)
	tc := TopologyConfig{
		Sim:      DefaultConfig(),
		Topology: Topology{Shards: 4, ReplicasPerShard: 3},
		Router:   RouterPowerAware{},
		Seed:     seed,
	}
	RunTopologyWorkers(tc, wl, 1, func(int) Policy { return &FixedPolicy{F: cpu.FDefault} })

	after := BenchWorkload(200, seed)
	if !reflect.DeepEqual(before, after) {
		t.Fatal("workload perturbed by power-aware routing draws")
	}
}

func TestTopologyPublishesClusterMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	wl := clusterWorkload(90, 2, 6, 13)
	tc := TopologyConfig{
		Sim:       DefaultConfig(),
		Topology:  Topology{Shards: 3, ReplicasPerShard: 2},
		Router:    RouterPowerAware{},
		Seed:      13,
		PowerCapW: 15, // between the six-core floor (~12.4 W) and max (~22.5 W): must throttle
		Metrics:   telemetry.NewClusterMetrics(reg),
	}
	tr := RunTopologyWorkers(tc, wl, 1, func(int) Policy { return &FixedPolicy{F: cpu.FDefault} })

	var sum uint64
	for _, n := range tr.RouteCounts {
		sum += n
	}
	if want := uint64(tr.Queries * tc.Topology.Shards); sum != want {
		t.Fatalf("route counts sum %d, want %d", sum, want)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	expo := sb.String()
	for _, fam := range []string{
		telemetry.ClusterRouteTotalName,
		telemetry.ClusterCapThrottleName,
		telemetry.ClusterModeledPowerWName,
		telemetry.ClusterQueryLatencyMsName,
	} {
		if !strings.Contains(expo, fam) {
			t.Errorf("exposition missing family %s", fam)
		}
	}
	if !strings.Contains(expo, `shard="0"`) || !strings.Contains(expo, `replica="1"`) {
		t.Errorf("exposition missing shard/replica labels:\n%s", expo)
	}
	if tr.CapThrottles == 0 {
		t.Error("40 W cap over 6 cores never throttled — smoke telemetry would be empty")
	}
}

// FuzzRouterEquivalence is the CI smoke fuzz: arbitrary (seed, router, cap)
// triples must keep the sharded topology run byte-identical to the serial
// one — the TopologyResult, the merged timeline export, and the decision and
// span sinks at fuzzed capacities (span capacity 0 is a ring that never
// wraps). Both hand their decisions over in one Tracer.EmitRun, built in full
// only where the ring retains them, and both leave the spans of cores the
// sink cannot retain counted, not built; the sharded run does the three
// hand-offs concurrently.
func FuzzRouterEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint16(512), uint16(4096))
	f.Add(int64(7), uint8(1), uint8(1), uint16(31), uint16(97))
	f.Add(int64(42), uint8(2), uint8(2), uint16(1), uint16(1))
	f.Add(int64(-9), uint8(3), uint8(1), uint16(2000), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, ri, capSel uint8, ringCap, spanCap uint16) {
		router, err := RouterByName(RouterNames[int(ri)%len(RouterNames)])
		if err != nil {
			t.Fatal(err)
		}
		capW := 0.0
		switch capSel % 3 {
		case 1:
			capW = 14 // tight for six cores (floor ≈12.4 W): throttles constantly
		case 2:
			capW = 19 // loose (max ≈22.5 W): throttles only under bursts
		}
		run := func(workers int) (*TopologyResult, []byte, sinkState) {
			wl := clusterWorkload(150, 2, 6, seed)
			cfg := DefaultConfig()
			cfg.Series = NewRunTimeseries(cfg.Ladder, wl.DurationMs, 50)
			cfg.Tracer = telemetry.NewTracer(int(ringCap))
			cfg.Spans = telemetry.NewSpanTracer(1 << 16)
			if spanCap > 0 {
				cfg.Spans = telemetry.NewSpanTracer(int(spanCap))
			}
			tc := TopologyConfig{
				Sim:       cfg,
				Topology:  Topology{Shards: 3, ReplicasPerShard: 2},
				Router:    router,
				Seed:      seed,
				PowerCapW: capW,
			}
			tr := RunTopologyWorkers(tc, wl, workers, mkPredictingStorm)
			var buf bytes.Buffer
			if err := cfg.Series.WriteJSONL(&buf); err != nil {
				t.Fatal(err)
			}
			return tr, buf.Bytes(), readSinks(cfg)
		}
		serial, serialTL, serialSinks := run(1)
		sharded, shardedTL, shardedSinks := run(4)
		if !reflect.DeepEqual(serial, sharded) {
			t.Fatalf("seed=%d router=%s cap=%v: sharded run diverges from serial",
				seed, router.Name(), capW)
		}
		if !bytes.Equal(serialTL, shardedTL) {
			t.Fatalf("seed=%d router=%s cap=%v: sharded timeline diverges from serial",
				seed, router.Name(), capW)
		}
		if !reflect.DeepEqual(serialSinks, shardedSinks) {
			t.Fatalf("seed=%d router=%s cap=%v ring=%d spans=%d: sharded sinks diverge from serial "+
				"(spans %d/%d, decisions %d/%d)", seed, router.Name(), capW, ringCap, spanCap,
				shardedSinks.spanTotal, serialSinks.spanTotal, shardedSinks.emitted, serialSinks.emitted)
		}
	})
}
