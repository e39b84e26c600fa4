package sim

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"gemini/internal/cpu"
	"gemini/internal/telemetry"
)

func clusterWorkload(n int, gapMs, serviceMs float64, seed int64) *Workload {
	rng := rand.New(rand.NewSource(seed))
	wl := &Workload{BudgetMs: 40}
	at := 0.0
	for i := 0; i < n; i++ {
		at += rng.ExpFloat64() * gapMs
		w := cpu.Work(serviceMs * float64(cpu.FDefault) * (0.5 + rng.Float64()))
		wl.Add(at, Draw{Base: w, Work: w})
	}
	wl.DurationMs = at + 100
	return wl
}

func TestDispatchPartitionsAll(t *testing.T) {
	wl := clusterWorkload(200, 5, 8, 1)
	parts := Dispatch(wl, 4)
	if len(parts) != 4 {
		t.Fatalf("parts = %d", len(parts))
	}
	total := 0
	for _, p := range parts {
		total += len(p)
		// Arrival order must be preserved within each core.
		for i := 1; i < len(p); i++ {
			if p[i] <= p[i-1] {
				t.Fatal("per-core arrivals out of order")
			}
		}
	}
	if total != 200 {
		t.Fatalf("dispatched %d of 200", total)
	}
}

func TestDispatchBalances(t *testing.T) {
	wl := clusterWorkload(400, 2, 8, 2)
	parts := Dispatch(wl, 4)
	for c, p := range parts {
		if len(p) < 50 || len(p) > 150 {
			t.Errorf("core %d got %d of 400 requests — badly balanced", c, len(p))
		}
	}
}

func TestRunClusterRelievesOverload(t *testing.T) {
	// 8 ms mean service at 2 ms mean gap: a single core is hopelessly
	// overloaded; four cores handle it.
	wl1 := clusterWorkload(300, 2, 8, 3)
	single := Run(DefaultConfig(), wl1, &FixedPolicy{F: cpu.FDefault})
	wl2 := clusterWorkload(300, 2, 8, 3)
	cluster := RunClusterWorkers(DefaultConfig(), wl2, 4, 1, func(int) Policy { return &FixedPolicy{F: cpu.FDefault} })

	if cluster.Total != 300 || cluster.Completed != 300 {
		t.Fatalf("cluster completed %d of %d", cluster.Completed, cluster.Total)
	}
	if cluster.ViolationRate() >= single.ViolationRate() {
		t.Errorf("cluster violation rate %v not below single-core %v",
			cluster.ViolationRate(), single.ViolationRate())
	}
	if cluster.TailLatencyMs(95) >= single.TailLatencyMs(95) {
		t.Errorf("cluster tail %v not below single %v",
			cluster.TailLatencyMs(95), single.TailLatencyMs(95))
	}
}

func TestClusterSocketPower(t *testing.T) {
	wl := clusterWorkload(100, 10, 5, 4)
	m := cpu.DefaultPowerModel()
	cluster := RunClusterWorkers(DefaultConfig(), wl, 4, 1, func(int) Policy { return &FixedPolicy{F: cpu.FDefault} })
	p := cluster.SocketPowerW(m)
	// 4 simulated + 8 idle-floor cores + uncore: must be a sane wattage.
	if p < m.UncoreW || p > 60 {
		t.Errorf("socket power = %v", p)
	}
	// Energy must equal the sum of per-core energies.
	sum := 0.0
	for _, r := range cluster.PerCore {
		sum += r.EnergyMJ
	}
	if math.Abs(sum-cluster.EnergyMJ) > 1e-9 {
		t.Errorf("energy aggregation mismatch")
	}
}

func TestClusterSingleCoreDegenerate(t *testing.T) {
	wl := clusterWorkload(50, 20, 5, 5)
	cluster := RunClusterWorkers(DefaultConfig(), wl, 0, 1, func(int) Policy { return &FixedPolicy{F: cpu.FDefault} })
	if len(cluster.PerCore) != 1 {
		t.Fatalf("cores = %d, want clamp to 1", len(cluster.PerCore))
	}
	if cluster.Total != 50 {
		t.Errorf("total = %d", cluster.Total)
	}
}

func TestClusterEmptyWorkload(t *testing.T) {
	wl := &Workload{BudgetMs: 40, DurationMs: 100}
	cluster := RunClusterWorkers(DefaultConfig(), wl, 3, 1, func(int) Policy { return &FixedPolicy{F: cpu.FDefault} })
	if cluster.ViolationRate() != 0 || cluster.TailLatencyMs(95) != 0 {
		t.Errorf("empty cluster metrics: %+v", cluster)
	}
}

// dispatchLinearRef is the broker written as the plain O(cores) float scan,
// the reference for the routing pass's tie-break contract: first minimal
// index.
func dispatchLinearRef(wl *Workload, cores int) [][]int32 {
	assign := make([][]int32, cores)
	vFinish := make([]float64, cores)
	for i, at := range wl.ArrivalMs {
		best := 0
		for c := 1; c < cores; c++ {
			if vFinish[c] < vFinish[best] {
				best = c
			}
		}
		start := at
		if vFinish[best] > start {
			start = vFinish[best]
		}
		vFinish[best] = start + cpu.TimeFor(wl.Draws[i].Base, cpu.FDefault)
		assign[best] = append(assign[best], int32(i))
	}
	return assign
}

func TestDispatchMatchesLinear(t *testing.T) {
	// The routing pass must assign every request to the exact core the
	// linear first-minimal-index scan picks — including tie-heavy workloads
	// where many cores share a virtual finish time, which pin that
	// RouterLeastLoaded's bits comparison keeps the first minimal index.
	for seed := int64(1); seed <= 10; seed++ {
		for _, cores := range []int{1, 2, 3, 7, 16, 33} {
			wl := clusterWorkload(500, 3, 6, seed)
			if seed%2 == 0 {
				// Identical works + identical arrivals: all-ties stress.
				for i, at := range wl.ArrivalMs {
					wl.Draws[i].Base = 27
					wl.ArrivalMs[i] = float64(int(at/5)) * 5
				}
			}
			want := dispatchLinearRef(wl, cores)
			parts := Dispatch(wl, cores)
			for c, got := range parts {
				if !reflect.DeepEqual(got, want[c]) && !(len(got) == 0 && len(want[c]) == 0) {
					t.Fatalf("seed %d cores %d: core %d assignment diverges:\n  Dispatch: %v\n  linear:   %v",
						seed, cores, c, got, want[c])
				}
			}
		}
	}
}

// TestMergeSortedMatchesSort: the merged latencies are sort.Float64s's
// bytes for any worker count, on runs small enough for one part and on runs
// large enough to be cut into several, with values quantized so that equal
// values straddle the cuts and repeat across cores.
func TestMergeSortedMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		k := 1 + rng.Intn(8)
		maxLen, levels := 40, 20
		if trial%3 == 0 {
			maxLen, levels = 3*minMergePart, 1+rng.Intn(4000)
		}
		results := make([]*Result, k)
		var all []float64
		for i := range results {
			results[i] = &Result{}
			n := rng.Intn(maxLen)
			for j := 0; j < n; j++ {
				v := float64(rng.Intn(levels)) / 8
				results[i].Latencies = append(results[i].Latencies, v)
				all = append(all, v)
			}
			sort.Float64s(results[i].Latencies)
		}
		sort.Float64s(all)
		for _, workers := range []int{1, 2, 3, 7} {
			got := allLatencies(results, workers)
			if len(all) == 0 {
				if got != nil {
					t.Fatalf("trial %d: empty merge returned %v", trial, got)
				}
				continue
			}
			if !reflect.DeepEqual(got, all) {
				t.Fatalf("trial %d, %d workers: merge of %d latencies diverges from sort", trial, workers, len(all))
			}
		}
	}
}

// mkCountingPolicy builds policies that exercise timers and planned changes
// per core, so the sharded telemetry path has real traffic to merge.
func mkCountingPolicy(core int) Policy {
	return &tieStormPolicy{}
}

func TestClusterWorkersMatchesSerial(t *testing.T) {
	// The sharded run must be byte-identical to the serial run: per-core
	// results, merged aggregates, decision traces, and spans.
	for _, workers := range []int{2, 4, 9} {
		runOnce := func(w int) (*ClusterResult, []telemetry.Decision, []telemetry.Span) {
			wl := clusterWorkload(600, 2, 6, 17)
			cfg := DefaultConfig()
			cfg.RecordFreqTrace = true
			cfg.Tracer = telemetry.NewTracer(700)
			cfg.Spans = telemetry.NewSpanTracer(4000)
			cr := RunClusterWorkers(cfg, wl, 8, w, mkCountingPolicy)
			return cr, cfg.Tracer.Ring().Snapshot(0), cfg.Spans.Spans()
		}
		crS, decS, spS := runOnce(1)
		crP, decP, spP := runOnce(workers)
		if !reflect.DeepEqual(crS, crP) {
			t.Fatalf("workers=%d: cluster results diverge from serial", workers)
		}
		if !reflect.DeepEqual(decS, decP) {
			t.Fatalf("workers=%d: decision traces diverge (%d vs %d)", workers, len(decS), len(decP))
		}
		if !reflect.DeepEqual(spS, spP) {
			t.Fatalf("workers=%d: span traces diverge (%d vs %d)", workers, len(spS), len(spP))
		}
	}
}

func TestClusterEventsAggregated(t *testing.T) {
	wl := clusterWorkload(100, 5, 5, 21)
	cr := RunClusterWorkers(DefaultConfig(), wl, 4, 1, func(int) Policy { return &FixedPolicy{F: cpu.FDefault} })
	var sum uint64
	for _, r := range cr.PerCore {
		sum += r.Events
	}
	if cr.Events != sum || cr.Events == 0 {
		t.Errorf("Events = %d, per-core sum = %d", cr.Events, sum)
	}
}

// FuzzRunnersAgree: one core is one core whichever runner drives it. A chaos
// workload of up to 64 requests gives the same per-request outcomes — the
// decision trace — and the same core result through Run, through
// RunClusterWorkers on one core and through a 1×1 least-loaded
// RunTopologyWorkers, and each runner gives its first result again when it
// runs the workload a second time.
func FuzzRunnersAgree(f *testing.F) {
	f.Add(int64(1), uint8(10))
	f.Add(int64(42), uint8(63))
	f.Add(int64(-7), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		wl := chaosWorkload(seed, int(n)%64+1)
		mk := func(int) Policy { return &chaosPolicy{rng: rand.New(rand.NewSource(seed ^ 0x9e3779b9))} }
		// traced runs fn with a decision tracer that retains every decision.
		traced := func(fn func(cfg Config) *Result) (*Result, []telemetry.Decision) {
			cfg := DefaultConfig()
			cfg.Tracer = telemetry.NewTracer(wl.Len())
			return fn(cfg), cfg.Tracer.Ring().Snapshot(0)
		}
		runners := []struct {
			name string
			run  func(cfg Config) *Result
		}{
			{"Run", func(cfg Config) *Result {
				res := Run(cfg, wl, mk(0))
				res.Requests = nil // the cluster runners drop theirs
				return res
			}},
			{"RunClusterWorkers", func(cfg Config) *Result {
				cr := RunClusterWorkers(cfg, wl, 1, 1, mk)
				if !slices.Equal(cr.QueryLatencies, cr.PerCore[0].Latencies) {
					t.Fatal("RunClusterWorkers: merged latencies are not the core's")
				}
				return cr.PerCore[0]
			}},
			{"RunTopologyWorkers", func(cfg Config) *Result {
				tr := RunTopologyWorkers(TopologyConfig{Sim: cfg, Router: RouterLeastLoaded{}}, wl, 1, mk)
				res := tr.PerCore[0]
				if tr.Completed != res.Completed || tr.Dropped != res.Dropped || tr.Violations != res.Violations ||
					!slices.Equal(tr.QueryLatencies, res.Latencies) {
					t.Fatal("RunTopologyWorkers: 1×1 query accounting is not the core's")
				}
				return res
			}},
		}
		want, wantDec := traced(runners[0].run)
		for _, r := range runners {
			for pass := 1; pass <= 2; pass++ {
				got, dec := traced(r.run)
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(dec, wantDec) {
					t.Fatalf("seed %d, %d requests: %s, run %d, differs from Run's first run", seed, wl.Len(), r.name, pass)
				}
			}
		}
	})
}
