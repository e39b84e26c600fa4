package sim

import (
	"reflect"
	"testing"
	"unsafe"

	"gemini/internal/cpu"
	"gemini/internal/search"
)

// Tests of the leg table and the per-core request slabs: what a cluster run
// allocates is a function of the core count, every core is handed copies of
// exactly its legs in arrival order, and the caller's workload is read, never
// written.

func mkFixed(int) Policy { return &FixedPolicy{F: cpu.FDefault} }

// allocsAtSizes counts the allocations of run over an n-request and a
// 4n-request workload of the same arrival rate.
func allocsAtSizes(n int, run func(wl *Workload)) (small, large float64) {
	count := func(n int) float64 {
		wl := clusterWorkload(n, 2, 6, 41)
		return testing.AllocsPerRun(5, func() { resetWorkload(wl); run(wl) })
	}
	return count(n), count(4 * n)
}

// TestTopologyAllocsIndependentOfRequests is the property the leg table
// exists for: 3n more queries over three shards are 9n more legs, and a run
// must not allocate for any of them. The slack covers what grows with the
// simulated duration or the queue depth by doubling: the coordinator's
// series and schedules, the engine's queue and event heap.
func TestTopologyAllocsIndependentOfRequests(t *testing.T) {
	const n = 1500
	for _, workers := range []int{1, 2} {
		tc := TopologyConfig{
			Sim:       DefaultConfig(),
			Topology:  Topology{Shards: 3, ReplicasPerShard: 2},
			Router:    RouterPowerAware{},
			Seed:      7,
			PowerCapW: 16,
		}
		small, large := allocsAtSizes(n, func(wl *Workload) { RunTopologyWorkers(tc, wl, workers, mkFixed) })
		if small <= 0 || large-small > 8*float64(tc.Topology.Cores()) {
			t.Errorf("workers=%d: %.0f allocs at n and %.0f at 4n requests", workers, small, large)
		}
	}
}

// TestClusterAllocsIndependentOfRequests is the broker-cluster twin: Dispatch
// carves every core's Requests from one array.
func TestClusterAllocsIndependentOfRequests(t *testing.T) {
	const n, cores = 1500, 6
	small, large := allocsAtSizes(n, func(wl *Workload) { RunClusterWorkers(DefaultConfig(), wl, cores, 2, mkFixed) })
	if small <= 0 || large-small > 8*cores {
		t.Errorf("%.0f allocs at n and %.0f at 4n requests", small, large)
	}
}

// TestBuildWorkloadAllocsIndependentOfRequests: one slab and one pointer
// slice, whatever the arrival count.
func TestBuildWorkloadAllocsIndependentOfRequests(t *testing.T) {
	pool := []PreparedQuery{{BaseWork: 10}, {BaseWork: 25}, {BaseWork: 40}}
	count := func(n int) float64 {
		arrivals := make([]float64, n)
		for i := range arrivals {
			arrivals[i] = float64(2 * i)
		}
		return testing.AllocsPerRun(5, func() { BuildWorkload(pool, arrivals, search.DefaultJitter(), 40, 0, 3) })
	}
	if small, large := count(500), count(2000); small <= 0 || large != small {
		t.Errorf("%.0f allocs at n and %.0f at 4n arrivals", small, large)
	}
}

// TestTopologyLeavesInputUntouched: the cores run slab copies, so a topology
// run reads wl.Requests and writes none of their fields, lifecycle included.
func TestTopologyLeavesInputUntouched(t *testing.T) {
	wl := clusterWorkload(300, 2, 6, 19)
	before := make([]Request, len(wl.Requests))
	for i, r := range wl.Requests {
		before[i] = *r
	}
	tc := TopologyConfig{
		Sim:       DefaultConfig(),
		Topology:  Topology{Shards: 3, ReplicasPerShard: 2},
		Router:    RouterPowerAware{},
		Seed:      3,
		PowerCapW: 16,
	}
	tr := RunTopologyWorkers(tc, wl, 2, mkPredictingStorm)
	if tr.Completed+tr.Dropped != len(wl.Requests) {
		t.Fatalf("completed %d + dropped %d != %d queries", tr.Completed, tr.Dropped, len(wl.Requests))
	}
	for i, r := range wl.Requests {
		if !reflect.DeepEqual(*r, before[i]) {
			t.Fatalf("request %d changed:\n got %+v\nwant %+v", i, *r, before[i])
		}
	}
}

// arrivalLog records the requests one core is handed, in the order the engine
// delivers them, which is the order of the core's Requests.
type arrivalLog struct {
	FixedPolicy
	seen []Request
}

func (p *arrivalLog) OnArrival(_ *Sim, r *Request) { p.seen = append(p.seen, *r) }

// routerConst returns the same replica index for every leg, in range or not.
type routerConst int

func (routerConst) Name() string                          { return "const" }
func (j routerConst) Pick(*RouteState, int, *Request) int { return int(j) }

// TestTopologyCoreRequestsInArrivalOrder pins what the merge's cursors rely
// on: every core is handed exactly its legs of the table, in query order,
// each carrying the query's own ID, pool entry, work and deadline. An
// out-of-range pick lands on the shard's replica 0.
func TestTopologyCoreRequestsInArrivalOrder(t *testing.T) {
	wl := clusterWorkload(240, 2, 6, 13)
	pool := make([]PreparedQuery, 7)
	for i, r := range wl.Requests {
		r.Entry, r.PoolIdx = &pool[i%len(pool)], int32(i%len(pool))
	}
	topo := Topology{Shards: 3, ReplicasPerShard: 2}
	for _, router := range []Router{RouterRoundRobin{}, RouterPowerAware{}, routerConst(-1), routerConst(2)} {
		logs := make([]*arrivalLog, topo.Cores())
		mk := func(c int) Policy {
			logs[c] = &arrivalLog{FixedPolicy: FixedPolicy{F: cpu.FDefault}}
			return logs[c]
		}
		tc := TopologyConfig{Sim: DefaultConfig(), Topology: topo, Router: router, Seed: 5}
		tr := RunTopologyWorkers(tc, wl, 2, mk)

		perShard := make([]int, topo.Shards)
		for c, l := range logs {
			if uint64(len(l.seen)) != tr.RouteCounts[c] {
				t.Errorf("%s core %d: handed %d requests, routed %d", router.Name(), c, len(l.seen), tr.RouteCounts[c])
			}
			perShard[c/topo.ReplicasPerShard] += len(l.seen)
			for i, got := range l.seen {
				src := wl.Requests[got.ID]
				if i > 0 && got.ID <= l.seen[i-1].ID {
					t.Fatalf("%s core %d: request %d after %d", router.Name(), c, got.ID, l.seen[i-1].ID)
				}
				if got.Entry != src.Entry || got.PoolIdx != src.PoolIdx ||
					got.BaseWork != src.BaseWork || got.WorkTotal != src.WorkTotal ||
					got.ArrivalMs != src.ArrivalMs || got.DeadlineMs != src.DeadlineMs {
					t.Fatalf("%s core %d: request %d is not a copy of the query", router.Name(), c, got.ID)
				}
			}
		}
		for s, n := range perShard {
			if n != len(wl.Requests) {
				t.Errorf("%s shard %d: %d legs for %d queries", router.Name(), s, n, len(wl.Requests))
			}
		}
		if _, outOfRange := router.(routerConst); outOfRange {
			for c, n := range tr.RouteCounts {
				want := uint64(0)
				if c%topo.ReplicasPerShard == 0 {
					want = uint64(len(wl.Requests))
				}
				if n != want {
					t.Errorf("%s: core %d routed %d legs, want %d (all on replica 0)", router.Name(), c, n, want)
				}
			}
		}
	}
}

// TestDispatchPartsDoNotOverlap: the per-core Requests share one backing
// array, so each must be exact-size — an append to one part must not write
// into the next.
func TestDispatchPartsDoNotOverlap(t *testing.T) {
	wl := clusterWorkload(200, 5, 8, 1)
	parts := Dispatch(wl, 4)
	for c, p := range parts {
		if cap(p.Requests) != len(p.Requests) {
			t.Errorf("part %d: cap %d, len %d", c, cap(p.Requests), len(p.Requests))
		}
	}
	first := parts[1].Requests[0]
	parts[0].Requests = append(parts[0].Requests, &Request{ID: -1})
	if parts[1].Requests[0] != first {
		t.Error("append to part 0 overwrote part 1's first request")
	}
}

// TestLatenciesSizedOnce: a run reserves one latency slot per request up
// front, and an empty workload reserves nothing.
func TestLatenciesSizedOnce(t *testing.T) {
	wl := traceWorkload(100, 3)
	if res := Run(DefaultConfig(), wl, &FixedPolicy{F: cpu.FDefault}); cap(res.Latencies) != len(wl.Requests) {
		t.Errorf("cap(Latencies) = %d for %d requests", cap(res.Latencies), len(wl.Requests))
	}
	empty := &Workload{BudgetMs: 40, DurationMs: 100}
	if res := Run(DefaultConfig(), empty, &FixedPolicy{F: cpu.FDefault}); res.Latencies != nil {
		t.Errorf("empty workload: Latencies = %v, want nil", res.Latencies)
	}
}

// TestRequestSize: every slab is this many bytes per request, zeroed, filled
// and streamed through once per run, so what a query determines stays in its
// pool entry and a new field has to fit the budget.
func TestRequestSize(t *testing.T) {
	if got := unsafe.Sizeof(Request{}); got > 112 {
		t.Errorf("sizeof(Request) = %d bytes, want <= 112", got)
	}
}
