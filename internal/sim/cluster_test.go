package sim

import (
	"math"
	"math/rand"
	"reflect"
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
		wl.Requests = append(wl.Requests, &Request{
			ID: i, BaseWork: w, WorkTotal: w,
			ArrivalMs: at, DeadlineMs: at + 40,
		})
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
		total += len(p.Requests)
		// Arrival order must be preserved within each core.
		for i := 1; i < len(p.Requests); i++ {
			if p.Requests[i].ArrivalMs < p.Requests[i-1].ArrivalMs {
				t.Fatal("per-core arrivals out of order")
			}
		}
		if p.BudgetMs != 40 || p.DurationMs != wl.DurationMs {
			t.Fatal("partition metadata lost")
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
		if len(p.Requests) < 50 || len(p.Requests) > 150 {
			t.Errorf("core %d got %d of 400 requests — badly balanced", c, len(p.Requests))
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

// dispatchLinearRef is the original O(cores) scan broker, kept here as the
// reference for the heap broker's tie-break contract: first minimal index.
func dispatchLinearRef(wl *Workload, cores int) [][]int {
	assign := make([][]int, cores)
	vFinish := make([]float64, cores)
	for _, r := range wl.Requests {
		best := 0
		for c := 1; c < cores; c++ {
			if vFinish[c] < vFinish[best] {
				best = c
			}
		}
		start := r.ArrivalMs
		if vFinish[best] > start {
			start = vFinish[best]
		}
		vFinish[best] = start + cpu.TimeFor(r.BaseWork, cpu.FDefault)
		assign[best] = append(assign[best], r.ID)
	}
	return assign
}

func TestDispatchHeapMatchesLinear(t *testing.T) {
	// The heap broker must assign every request to the exact core the linear
	// first-minimal-index scan picks — including tie-heavy workloads where
	// many cores share a virtual finish time.
	for seed := int64(1); seed <= 10; seed++ {
		for _, cores := range []int{1, 2, 3, 7, 16, 33} {
			wl := clusterWorkload(500, 3, 6, seed)
			if seed%2 == 0 {
				// Identical works + identical arrivals: all-ties stress.
				for _, r := range wl.Requests {
					r.BaseWork = 27
					r.ArrivalMs = float64(int(r.ArrivalMs/5)) * 5
				}
			}
			want := dispatchLinearRef(wl, cores)
			parts := Dispatch(wl, cores)
			for c := range parts {
				got := make([]int, 0, len(parts[c].Requests))
				for _, r := range parts[c].Requests {
					got = append(got, r.ID)
				}
				if !reflect.DeepEqual(got, want[c]) && !(len(got) == 0 && len(want[c]) == 0) {
					t.Fatalf("seed %d cores %d: core %d assignment diverges:\n  heap:   %v\n  linear: %v",
						seed, cores, c, got, want[c])
				}
			}
		}
	}
}

func TestMergeSortedMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(8)
		results := make([]*Result, k)
		var all []float64
		for i := range results {
			results[i] = &Result{}
			n := rng.Intn(40)
			for j := 0; j < n; j++ {
				// Quantized values force cross-core duplicates.
				v := float64(rng.Intn(20))
				results[i].Latencies = append(results[i].Latencies, v)
				all = append(all, v)
			}
			sort.Float64s(results[i].Latencies)
		}
		got := allLatencies(results)
		sort.Float64s(all)
		if len(all) == 0 {
			if got != nil {
				t.Fatalf("trial %d: empty merge returned %v", trial, got)
			}
			continue
		}
		if !reflect.DeepEqual(got, all) {
			t.Fatalf("trial %d: merge diverges from sort", trial)
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
