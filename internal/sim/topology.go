package sim

import (
	"fmt"
	"math"
	"math/rand"

	"gemini/internal/cpu"
	"gemini/internal/stats"
	"gemini/internal/telemetry"
)

// Cluster topology: shards × replicas above the per-core broker.
//
// The paper's evaluation stops at 12 single-thread ISNs behind one aggregator
// (§V). This layer scales the same discrete-event machinery to a datacenter
// topology: the index is split over Shards shards, each shard is served by
// ReplicasPerShard replica cores, and every query fans out to exactly one
// replica per shard. A pluggable Router picks the replica; the query's
// latency is its straggler — the slowest shard's completion — which is what
// makes replicas-per-shard vs. tail-latency vs. watts a real capacity-planning
// trade-off ("Capacity Planning for Vertical Search Engines").
//
// Determinism discipline (the PR 6 contract, extended to fan-out/merge):
// routing runs as a serial pre-pass over arrivals using only *virtual*
// per-replica state (vFinish, the modeled DVFS frequency, cap ceilings), so
// replica assignment is a pure function of (workload, router, seed, cap) and
// never of execution interleaving. The per-replica simulations then share
// nothing and run on OS threads; aggregation walks cores in index order,
// query stragglers are assembled in arrival order, and telemetry is captured
// per core and replayed in core order. RunTopologyWorkers is therefore
// byte-identical to the serial run under every router — results, latencies,
// decision rings, and spans (TestTopologyWorkersMatchesSerial,
// FuzzRouterEquivalence).
//
// Routing randomness (RouterPowerAware's tie-breaks) draws from the
// PartitionedRNG routing stream, so enabling or disabling a router — or
// changing how often it draws — can never perturb workload generation.

// Topology is the cluster shape: Shards index partitions, each served by
// ReplicasPerShard replica cores. The zero value normalizes to 1×1, which is
// exactly one single-core simulation.
type Topology struct {
	Shards           int
	ReplicasPerShard int
}

// normalized clamps both dimensions to at least 1.
func (t Topology) normalized() Topology {
	if t.Shards < 1 {
		t.Shards = 1
	}
	if t.ReplicasPerShard < 1 {
		t.ReplicasPerShard = 1
	}
	return t
}

// Cores returns the total simulated core count, Shards × ReplicasPerShard.
func (t Topology) Cores() int {
	t = t.normalized()
	return t.Shards * t.ReplicasPerShard
}

// Core maps (shard, replica) to the flat core index.
//
//gemini:hotpath
func (t Topology) Core(shard, replica int) int {
	return shard*t.ReplicasPerShard + replica
}

// RouteState is the virtual per-replica view routers decide on during the
// routing pre-pass. It deliberately mirrors the broker's accounting — vFinish
// advances by each request's base service time at the default frequency — so
// RouterLeastLoaded over a single shard reproduces Dispatch exactly, and it
// adds the two signals the new routers need: a modeled per-replica DVFS
// frequency (what a deadline-targeting policy like Gemini would currently
// run, given the replica's backlog) and the PowerCapCoordinator's per-replica
// frequency ceilings.
type RouteState struct {
	topo     Topology
	budgetMs float64
	ladder   *cpu.Ladder
	now      float64

	vFinish  []float64  // virtual finish time per core (broker accounting)
	ceilings []cpu.Freq // cap-coordinator ceilings (ladder.Max() when uncapped)
	rr       []int      // per-shard round-robin cursors
	tied     []int      // RouterPowerAware's tie pool, cap Replicas(), resliced per Pick
	rng      *rand.Rand // PartitionedRNG routing stream
}

func newRouteState(topo Topology, budgetMs float64, ladder *cpu.Ladder, rng *rand.Rand) *RouteState {
	topo = topo.normalized()
	cores := topo.Cores()
	st := &RouteState{
		topo:     topo,
		budgetMs: budgetMs,
		ladder:   ladder,
		vFinish:  make([]float64, cores),
		ceilings: make([]cpu.Freq, cores),
		rr:       make([]int, topo.Shards),
		tied:     make([]int, 0, topo.ReplicasPerShard),
		rng:      rng,
	}
	for c := range st.ceilings {
		st.ceilings[c] = ladder.Max()
	}
	return st
}

// Replicas returns the replicas-per-shard count (newRouteState normalized it).
//
//gemini:hotpath
func (st *RouteState) Replicas() int { return st.topo.ReplicasPerShard }

// Now returns the routing pass's current time (the arrival being routed).
//
//gemini:hotpath
func (st *RouteState) Now() float64 { return st.now }

// VFinish returns the replica's virtual finish time: when its queue would
// drain executing everything at the default frequency.
//
//gemini:hotpath
func (st *RouteState) VFinish(shard, replica int) float64 {
	return st.vFinish[st.topo.Core(shard, replica)]
}

// Ceiling returns the replica's current cap-coordinator frequency ceiling.
//
//gemini:hotpath
func (st *RouteState) Ceiling(shard, replica int) cpu.Freq {
	return st.ceilings[st.topo.Core(shard, replica)]
}

// PlannedFreq returns the replica's modeled DVFS frequency: the ladder level
// a deadline-targeting per-core policy would plan to drain the replica's
// current backlog within the latency budget, clamped to the cap ceiling. An
// idle replica cruises at the ladder floor. This is the routing layer's model
// of the per-core DVFS state — the same modeled-load idiom as vFinish — and
// is what RouterPowerAware steers on.
//
//gemini:hotpath
func (st *RouteState) PlannedFreq(shard, replica int) cpu.Freq {
	c := st.topo.Core(shard, replica)
	return plannedFreqFor(st.vFinish[c]-st.now, st.budgetMs, st.ladder, st.ceilings[c])
}

// plannedFreqFor is the shared modeled-DVFS law: backlogMs of work-time at
// the default frequency must drain within budgetMs, so the planned frequency
// is FDefault·backlog/budget clamped up to a ladder level and down to the
// ceiling. Zero backlog (or a degenerate budget) models an idle core at the
// ladder floor.
//
//gemini:hotpath
func plannedFreqFor(backlogMs, budgetMs float64, ladder *cpu.Ladder, ceiling cpu.Freq) cpu.Freq {
	if backlogMs <= 0 {
		return ladder.Min()
	}
	f := ladder.Max()
	if budgetMs > 0 {
		f = ladder.ClampUp(cpu.Freq(float64(cpu.FDefault) * backlogMs / budgetMs))
	}
	if f > ceiling {
		f = ceiling
	}
	if f < ladder.Min() {
		f = ladder.Min()
	}
	return f
}

// EstFinishMs estimates when the replica would finish r if routed there:
// queue drain plus r's base service at the replica's ceiling-limited service
// frequency. Deadline- and power-aware routing both rank on this.
//
//gemini:hotpath
func (st *RouteState) EstFinishMs(shard, replica int, r *Request) float64 {
	c := st.topo.Core(shard, replica)
	start := st.now
	if st.vFinish[c] > start {
		start = st.vFinish[c]
	}
	sf := st.ceilings[c]
	if sf > cpu.FDefault {
		sf = cpu.FDefault
	}
	return start + cpu.TimeFor(r.BaseWork, sf)
}

// assign commits r to the core, advancing its virtual finish time with the
// broker's exact accounting (start at max(arrival, vFinish), serve BaseWork
// at the default frequency).
//
//gemini:hotpath
func (st *RouteState) assign(c int, r *Request) {
	start := r.ArrivalMs
	if st.vFinish[c] > start {
		start = st.vFinish[c]
	}
	st.vFinish[c] = start + cpu.TimeFor(r.BaseWork, cpu.FDefault)
}

// Router picks, for each query and shard, the replica that serves the
// query's fan-out on that shard. Pick returns a replica index in
// [0, Replicas()); implementations must be deterministic functions of the
// RouteState (whose rng is the seeded routing stream — the only sanctioned
// randomness source).
type Router interface {
	Name() string
	Pick(st *RouteState, shard int, r *Request) int
}

// RouterRoundRobin cycles through a shard's replicas in order — the
// state-blind baseline every informed router must beat. Draw-free.
type RouterRoundRobin struct{}

func (RouterRoundRobin) Name() string { return "round-robin" }

//gemini:hotpath
func (RouterRoundRobin) Pick(st *RouteState, shard int, r *Request) int {
	j := st.rr[shard]
	st.rr[shard] = (j + 1) % st.Replicas()
	return j
}

// RouterLeastLoaded picks the replica with the earliest virtual finish time,
// first minimal index on exact ties — the §V broker's dispatch rule lifted to
// a shard's replica set. Over a single shard it reproduces Dispatch exactly
// (TestRouterLeastLoadedMatchesBroker). Draw-free.
type RouterLeastLoaded struct{}

func (RouterLeastLoaded) Name() string { return "least-loaded" }

//gemini:hotpath
func (RouterLeastLoaded) Pick(st *RouteState, shard int, r *Request) int {
	best := 0
	for j := 1; j < st.Replicas(); j++ {
		if st.VFinish(shard, j) < st.VFinish(shard, best) {
			best = j
		}
	}
	return best
}

// RouterDeadlineAware packs onto loaded replicas while the deadline still
// holds: among replicas whose ceiling-aware estimated finish meets r's
// deadline it picks the latest-finishing one (keeping the others draining
// toward idle, where the DVFS policies park them at the ladder floor), and
// falls back to the earliest estimated finish when no replica can make the
// deadline. Unlike RouterLeastLoaded it sees cap throttling: a replica with a
// depressed frequency ceiling serves slower and stops being a packing target
// before it becomes a straggler. Draw-free (ties take the lowest index).
type RouterDeadlineAware struct{}

func (RouterDeadlineAware) Name() string { return "deadline-aware" }

//gemini:hotpath
func (RouterDeadlineAware) Pick(st *RouteState, shard int, r *Request) int {
	bestMeet, bestMeetEst := -1, math.Inf(-1)
	bestAny, bestAnyEst := 0, math.Inf(1)
	for j := 0; j < st.Replicas(); j++ {
		est := st.EstFinishMs(shard, j, r)
		if est < bestAnyEst {
			bestAny, bestAnyEst = j, est
		}
		if est <= r.DeadlineMs && est > bestMeetEst {
			bestMeet, bestMeetEst = j, est
		}
	}
	if bestMeet >= 0 {
		return bestMeet
	}
	return bestAny
}

// RouterPowerAware steers queries to replicas whose modeled DVFS frequency is
// already high: work added to an already-hot core rides frequency the CMOS
// model is burning anyway, while the shard's remaining replicas stay parked
// at the ladder floor — the consolidation that makes a power cap cheap to
// honor. Among deadline-feasible replicas it prefers the highest planned
// frequency, then the earliest virtual finish; exact ties (the common
// all-idle case) break by a routing-stream draw, so equally-cold replicas
// share the wake-up load without perturbing any other subsystem's stream.
// With no feasible replica it falls back to the earliest estimated finish.
type RouterPowerAware struct{}

func (RouterPowerAware) Name() string { return "power-aware" }

//gemini:hotpath
func (RouterPowerAware) Pick(st *RouteState, shard int, r *Request) int {
	reps := st.Replicas()
	bestAny, bestAnyEst := 0, math.Inf(1)
	tied := st.tied[:0]
	var bestFreq cpu.Freq
	var bestVF float64
	for j := 0; j < reps; j++ {
		est := st.EstFinishMs(shard, j, r)
		if est < bestAnyEst {
			bestAny, bestAnyEst = j, est
		}
		if est > r.DeadlineMs {
			continue
		}
		pf, vf := st.PlannedFreq(shard, j), st.VFinish(shard, j)
		switch {
		//gemini:allow floatcmp -- planned freqs are discrete ladder levels and vFinish ties are exact by construction; equal scores must pool for the tie-break draw
		case len(tied) == 0 || pf > bestFreq || (pf == bestFreq && vf < bestVF):
			bestFreq, bestVF = pf, vf
			tied = tied[:0]
			tied = append(tied, j)
		//gemini:allow floatcmp -- exact-tie pooling, same as above
		case pf == bestFreq && vf == bestVF:
			tied = append(tied, j)
		}
	}
	if len(tied) == 0 {
		return bestAny
	}
	if len(tied) == 1 {
		return tied[0]
	}
	//gemini:allow hotpath -- the seeded routing stream is the sanctioned tie-break; Intn on a rand.Rand does not allocate
	return tied[st.rng.Intn(len(tied))]
}

// RouterByName resolves the flag spellings used by cmd/geminisim.
func RouterByName(name string) (Router, error) {
	switch name {
	case "round-robin", "rr":
		return RouterRoundRobin{}, nil
	case "least-loaded", "ll":
		return RouterLeastLoaded{}, nil
	case "deadline-aware", "deadline":
		return RouterDeadlineAware{}, nil
	case "power-aware", "power":
		return RouterPowerAware{}, nil
	default:
		return nil, fmt.Errorf("sim: unknown router %q (round-robin, least-loaded, deadline-aware, power-aware)", name)
	}
}

// RouterNames lists the canonical router spellings in presentation order.
var RouterNames = []string{"round-robin", "least-loaded", "deadline-aware", "power-aware"}

// TopologyConfig parameterizes a shards × replicas cluster run.
type TopologyConfig struct {
	// Sim is the per-core simulator configuration (engine, power model,
	// telemetry sinks — sinks are captured per core and replayed in core
	// order exactly as in RunClusterWorkers).
	Sim Config
	// Topology is the cluster shape; the zero value runs 1×1.
	Topology Topology
	// Router picks the replica per (query, shard); nil means
	// RouterLeastLoaded.
	Router Router
	// Seed roots the run's PartitionedRNG; only the routing stream is drawn
	// from here, so workload generation (seeded by its own builder) is
	// untouched by routing randomness.
	Seed int64
	// PowerCapW, when positive, enables the PowerCapCoordinator at this
	// cluster power cap (modeled watts: uncore + every replica core under
	// the CMOS model).
	PowerCapW float64
	// CapIntervalMs is the coordinator's control interval (default
	// DefaultCapIntervalMs).
	CapIntervalMs float64
	// Metrics, when non-nil, receives the per-replica route counts,
	// cap-throttle totals, modeled cluster power, and query straggler
	// latencies after the run completes (publication is post-merge and
	// serial, so it never affects run determinism).
	Metrics *telemetry.ClusterMetrics
}

// TopologyResult aggregates a shards × replicas run. Per-core results keep
// the broker-cluster semantics (each entry is one replica core); the
// query-level metrics account fan-out: a query completes when its slowest
// shard completes, is dropped if any shard dropped it, and violates its
// deadline if the straggler finished late.
type TopologyResult struct {
	Topology Topology
	Router   string
	PerCore  []*Result

	// Query-level (fan-out/straggler) accounting.
	Queries    int
	Completed  int
	Dropped    int // queries with at least one dropped shard request
	Violations int // fully-completed queries whose straggler missed the deadline
	// QueryLatencies holds each completed query's straggler latency
	// (slowest shard finish − arrival), sorted ascending.
	QueryLatencies []float64

	// Shard-request-level sums over cores (the per-core Results' view).
	ShardRequests int
	ShardDrops    int

	Events     uint64
	EnergyMJ   float64
	DurationMs float64

	// RouteCounts is the number of shard requests routed to each core.
	RouteCounts []uint64

	// Power-cap coordinator outcome (zero-valued when uncapped).
	CapW              float64
	CapIntervalMs     float64
	CapThrottles      int       // ceiling step-downs applied across all intervals
	ModeledPowerW     []float64 // modeled cluster watts at each control boundary, post-adjustment
	PeakModeledPowerW float64
}

// RunTopologyWorkers routes wl over the topology and simulates every replica
// core, sharded over `workers` OS threads (1 runs serially); the result is
// byte-identical for any worker count under every router (see the package
// comment's determinism discipline). mkPolicy is called once per core,
// possibly concurrently, and must return policies sharing no mutable state.
func RunTopologyWorkers(tc TopologyConfig, wl *Workload, workers int, mkPolicy func(core int) Policy) *TopologyResult {
	topo := tc.Topology.normalized()
	router := tc.Router
	if router == nil {
		router = RouterLeastLoaded{}
	}
	cfg := tc.Sim
	if cfg.Ladder == nil {
		cfg.Ladder = cpu.DefaultLadder()
	}
	if cfg.Power == nil {
		cfg.Power = cpu.DefaultPowerModel()
	}
	cores := topo.Cores()

	// --- routing pre-pass (serial, virtual state only) --------------------
	st := newRouteState(topo, wl.BudgetMs, cfg.Ladder, NewPartitionedRNG(tc.Seed).Routing())
	var coord *PowerCapCoordinator
	if tc.PowerCapW > 0 {
		coord = newPowerCapCoordinator(tc.PowerCapW, tc.CapIntervalMs, cfg.Power, cfg.Ladder, st)
	}
	// legs is the leg table, the pre-pass's only per-request output: the core
	// serving query qi on shard s, at legs[qi*Shards+s].
	legs := make([]int32, len(wl.Requests)*topo.Shards)
	routeCounts := make([]uint64, cores)
	reps := topo.ReplicasPerShard
	for qi, r := range wl.Requests {
		st.now = r.ArrivalMs
		if coord != nil {
			coord.advanceTo(r.ArrivalMs)
		}
		fan := legs[qi*topo.Shards:][:topo.Shards]
		for s := range fan {
			j := router.Pick(st, s, r)
			if j < 0 || j >= reps {
				j = 0
			}
			c := topo.Core(s, j)
			fan[s] = int32(c)
			routeCounts[c]++
			st.assign(c, r)
		}
	}
	if coord != nil {
		coord.finishTo(wl.DurationMs)
	}

	// --- independent per-core simulations (sharded) -----------------------
	mk := mkPolicy
	if coord != nil {
		inner := mkPolicy
		mk = func(c int) Policy { return wrapCapped(inner(c), coord.Schedule(c)) }
	}
	// Each core's job builds its own requests from the table before it runs.
	slabs := make([][]Request, cores)
	sizes := make([]int, cores)
	for c, n := range routeCounts {
		sizes[c] = int(n)
	}
	part := func(c int) *Workload {
		var reqs []*Request
		slabs[c], reqs = coreSlab(wl.Requests, legs, topo.Shards, c/reps, int32(c), routeCounts[c])
		return &Workload{Requests: reqs, BudgetMs: wl.BudgetMs, DurationMs: wl.DurationMs, Preds: wl.Preds}
	}
	results := runCores(cfg, sizes, part, workers, mk, coord)

	// --- deterministic merge ----------------------------------------------
	tr := &TopologyResult{
		Topology:    topo,
		Router:      router.Name(),
		PerCore:     results,
		Queries:     len(wl.Requests),
		DurationMs:  wl.DurationMs,
		RouteCounts: routeCounts,
	}
	for _, res := range results {
		tr.ShardRequests += res.Total
		tr.ShardDrops += res.Dropped
		tr.Events += res.Events
		tr.EnergyMJ += res.EnergyMJ
	}
	tr.QueryLatencies = make([]float64, 0, len(wl.Requests))
	// A core's slab holds its legs in query order, so one cursor per core
	// finds every leg of the table without a per-leg pointer.
	cursor := make([]int, cores)
	for qi, r := range wl.Requests {
		dropped := false
		finish := math.Inf(-1)
		for _, c := range legs[qi*topo.Shards:][:topo.Shards] {
			cl := &slabs[c][cursor[c]]
			cursor[c]++
			if cl.Dropped {
				dropped = true
			}
			if cl.FinishMs > finish {
				finish = cl.FinishMs
			}
		}
		switch {
		case dropped:
			tr.Dropped++
		default:
			tr.Completed++
			tr.QueryLatencies = append(tr.QueryLatencies, finish-r.ArrivalMs)
			if finish > r.DeadlineMs {
				tr.Violations++
			}
		}
	}
	stats.SortAscending(tr.QueryLatencies)
	if coord != nil {
		tr.CapW = coord.capW
		tr.CapIntervalMs = coord.intervalMs
		tr.CapThrottles = coord.throttles
		tr.ModeledPowerW = coord.seriesW
		for _, w := range coord.seriesW {
			if w > tr.PeakModeledPowerW {
				tr.PeakModeledPowerW = w
			}
		}
	}
	if tc.Metrics != nil {
		tr.publish(tc.Metrics)
	}
	return tr
}

// coreSlab builds one core's requests from the shared, read-only workload:
// a fresh Request in one contiguous slab for every query whose leg on shard
// is routed to core, in arrival order, and the pointer slice the engine takes.
// n is the core's route count, so both are exact-size. It runs inside the
// core's own job: the zero-and-fill is parallel across workers, and the
// engine then streams through memory it has just written.
func coreSlab(queries []*Request, legs []int32, shards, shard int, core int32, n uint64) ([]Request, []*Request) {
	slab := make([]Request, n)
	reqs := make([]*Request, n)
	k := 0
	for qi, r := range queries {
		if legs[qi*shards+shard] != core {
			continue
		}
		cl := &slab[k]
		cl.ID = r.ID
		cl.Entry = r.Entry
		cl.PoolIdx = r.PoolIdx
		cl.BaseWork = r.BaseWork
		cl.WorkTotal = r.WorkTotal
		cl.ArrivalMs = r.ArrivalMs
		cl.DeadlineMs = r.DeadlineMs
		reqs[k] = cl
		k++
	}
	return slab, reqs
}

// publish records the run's route/throttle/power telemetry (serial,
// post-merge — determinism of the run itself is unaffected).
func (tr *TopologyResult) publish(m *telemetry.ClusterMetrics) {
	reps := tr.Topology.ReplicasPerShard
	for c, n := range tr.RouteCounts {
		m.AddRoutes(c/reps, c%reps, n)
	}
	m.AddCapThrottles(uint64(tr.CapThrottles))
	if n := len(tr.ModeledPowerW); n > 0 {
		m.SetModeledPowerW(tr.ModeledPowerW[n-1])
	}
	for _, l := range tr.QueryLatencies {
		m.ObserveQueryLatency(l)
	}
}

// ViolationRate returns the fraction of queries whose straggler missed the
// deadline among all queries (drops excluded, as in Result).
func (tr *TopologyResult) ViolationRate() float64 {
	if tr.Queries == 0 {
		return 0
	}
	return float64(tr.Violations) / float64(tr.Queries)
}

// DropRate returns the fraction of queries with at least one dropped shard.
func (tr *TopologyResult) DropRate() float64 {
	if tr.Queries == 0 {
		return 0
	}
	return float64(tr.Dropped) / float64(tr.Queries)
}

// TailLatencyMs returns the p-th percentile query (straggler) latency.
func (tr *TopologyResult) TailLatencyMs(p float64) float64 {
	if len(tr.QueryLatencies) == 0 {
		return 0
	}
	return stats.PercentileSorted(tr.QueryLatencies, p)
}

// ClusterPowerW returns the modeled average cluster power: uncore plus every
// simulated replica core's average power under the CMOS model.
func (tr *TopologyResult) ClusterPowerW(m *cpu.PowerModel) float64 {
	p := m.UncoreW
	for _, res := range tr.PerCore {
		p += res.AvgCorePowW
	}
	return p
}
