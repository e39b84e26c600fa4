package sim

import (
	"fmt"
	"math"
	"math/rand"

	"gemini/internal/cpu"
	"gemini/internal/stats"
	"gemini/internal/telemetry"
)

// Cluster topology: shards × replicas, the package's one cluster runner (the
// §V broker cluster is its one-shard case, RunClusterWorkers).
//
// The paper's evaluation stops at 12 single-thread ISNs behind one aggregator
// (§V). This layer scales the same discrete-event machinery to a datacenter
// topology: Shards shards, each served by ReplicasPerShard replica cores, and
// every query fans out to exactly one replica per shard. A pluggable Router
// picks the replica; the query's latency is its straggler — the slowest
// shard's completion.
//
// A shard is a full replica of the index today: the workload has one work
// column, so every shard's leg of a query runs the whole query's work with
// the same draw, and S shards spend S times the energy on one answer. An S×1
// topology returns exactly sim.Run's latencies, violations and drops
// (TestShardIsFullReplicaToday); with more replicas the legs of a query
// differ only by routing and cap ceilings. The trade-off of replicas per
// shard against tail latency and watts that "Capacity Planning for Vertical
// Search Engines" plans for needs shards that partition the index, each
// serving its own part of a query's work, which this layer does not model.
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
func (t Topology) Core(shard, replica int) int {
	return shard*t.ReplicasPerShard + replica
}

// RouteState is the virtual per-replica view routers decide on during the
// routing pre-pass. Its vFinish is the §V broker's accounting — each request
// advances its core's virtual finish time by its base service time at the
// default frequency — and it adds the two signals the other routers need: a
// modeled per-replica DVFS frequency (what a deadline-targeting policy like
// Gemini would currently run, given the replica's backlog) and the
// PowerCapCoordinator's per-replica frequency ceilings.
type RouteState struct {
	topo     Topology
	budgetMs float64
	ladder   *cpu.Ladder
	now      float64

	vFinish []float64 // virtual finish time per core (broker accounting)

	// Built on first use by what reads them, so a round-robin or
	// least-loaded pass builds none of them: the coordinator's ceilings (nil
	// reads as ladder.Max() on every core), the planned-frequency law, the
	// per-shard round-robin cursors and the PartitionedRNG routing stream.
	ceilings []cpu.Freq
	law      plannedLaw
	rr       []int
	rng      *rand.Rand
	seed     int64

	q       Request // the query being routed, as a run would begin it
	qBaseMs float64 // q's base service time at the default frequency
}

func newRouteState(topo Topology, budgetMs float64, ladder *cpu.Ladder, seed int64) *RouteState {
	topo = topo.normalized()
	return &RouteState{
		topo:     topo,
		budgetMs: budgetMs,
		ladder:   ladder,
		vFinish:  make([]float64, topo.Cores()),
		seed:     seed,
	}
}

// route is the routing pre-pass: serial over arrivals, on virtual state only.
// It returns the leg table, the pass's only per-request output — the core
// serving query qi on shard s, at legs[qi*Shards+s] — and the number of legs
// each core serves. Routers see each query as the record a run would begin
// it with. coord, when non-nil, steps the cap's ceilings as time advances.
func (st *RouteState) route(wl *Workload, router Router, coord *PowerCapCoordinator) (legs []int32, counts []uint64) {
	shards, reps := st.topo.Shards, st.topo.ReplicasPerShard
	n := wl.Len()
	legs = make([]int32, n*shards)
	counts = make([]uint64, st.topo.Cores())
	q := &st.q
	for qi := range n {
		wl.record(q, qi)
		st.now = q.ArrivalMs
		// One divide per query: every replica at or above the default
		// frequency, and assign, serve q at this time.
		st.qBaseMs = cpu.TimeFor(q.BaseWork, cpu.FDefault)
		if coord != nil {
			coord.advanceTo(q.ArrivalMs)
		}
		fan := legs[qi*shards:][:shards]
		for s := range fan {
			j := router.Pick(st, s, q)
			if j < 0 || j >= reps {
				j = 0
			}
			c := st.topo.Core(s, j)
			fan[s] = int32(c)
			counts[c]++
			st.assign(c)
		}
	}
	if coord != nil {
		coord.advanceTo(wl.DurationMs)
	}
	return legs, counts
}

// Replicas returns the replicas-per-shard count (newRouteState normalized it).
func (st *RouteState) Replicas() int { return st.topo.ReplicasPerShard }

// Now returns the routing pass's current time (the arrival being routed).
func (st *RouteState) Now() float64 { return st.now }

// VFinish returns the replica's virtual finish time: when its queue would
// drain executing everything at the default frequency.
func (st *RouteState) VFinish(shard, replica int) float64 {
	return st.vFinish[st.topo.Core(shard, replica)]
}

// Ceiling returns the replica's current cap-coordinator frequency ceiling.
func (st *RouteState) Ceiling(shard, replica int) cpu.Freq {
	return st.ceiling(st.topo.Core(shard, replica))
}

func (st *RouteState) ceiling(c int) cpu.Freq {
	if st.ceilings == nil {
		return st.ladder.Max()
	}
	return st.ceilings[c]
}

// PlannedFreq returns the replica's modeled DVFS frequency: the ladder level
// a deadline-targeting per-core policy would plan to drain the replica's
// current backlog within the latency budget, clamped to the cap ceiling. An
// idle replica cruises at the ladder floor. This is the routing layer's model
// of the per-core DVFS state — the same modeled-load idiom as vFinish — and
// is what RouterPowerAware steers on.
func (st *RouteState) PlannedFreq(shard, replica int) cpu.Freq {
	st.law.build(st.ladder, st.budgetMs)
	c := st.topo.Core(shard, replica)
	return st.law.freq(st.vFinish[c]-st.now, st.ceiling(c))
}

// plannedLaw is the shared modeled-DVFS law: backlogMs of work-time at the
// default frequency must drain within budgetMs, so the planned frequency is
// FDefault·backlog/budget clamped up to a ladder level and down to the
// ceiling. Zero backlog models an idle core at the ladder floor, and a
// budget that is not positive plans every backlog at the ladder top.
//
// The law is a table of thresholds: steps[i].upTo is the largest backlog
// that plans at steps[i].f or below. b ↦ fl(fl(FDefault·b)/budget) is
// monotone, so every backlog above the threshold plans higher, and the table
// answers as the divide and the ladder search would, bit for bit.
type plannedLaw struct {
	steps []lawStep // one per ladder level, ascending; nil until built
	buf   [8]lawStep
}

type lawStep struct {
	upTo float64
	f    cpu.Freq
}

// build fills the table on first use; steps lives in buf up to the default
// ladder's eight levels, so building allocates nothing there.
func (l *plannedLaw) build(ladder *cpu.Ladder, budgetMs float64) {
	if l.steps != nil {
		return
	}
	l.steps = l.buf[:0]
	for f := ladder.Min(); ; {
		// Planned at f or below: FDefault·b/budget is at most f. A NaN (or
		// the +Inf that overflow gives) is past every level, as in ClampUp.
		atOrBelow := func(b float64) bool {
			return budgetMs > 0 && float64(cpu.FDefault)*b/budgetMs <= float64(f)
		}
		l.steps = append(l.steps, lawStep{upTo: lastFloatWhere(atOrBelow), f: f})
		next := ladder.StepUp(f) // f itself at the top
		if !(next > f) {
			return
		}
		f = next
	}
}

// lastFloatWhere returns the largest positive float64 that ok holds for, or
// +0 when it holds for none, by bisection over the bit patterns: those of the
// non-negative floats order as their values do. ok must hold on a prefix of
// the positive floats and not at +Inf.
func lastFloatWhere(ok func(float64) bool) float64 {
	lo, hi := uint64(0), math.Float64bits(math.Inf(1))
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if ok(math.Float64frombits(mid)) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Float64frombits(lo)
}

// freq is the law at backlogMs under ceiling; the table must be built. The
// top level takes every backlog past the last threshold, NaN included.
func (l *plannedLaw) freq(backlogMs float64, ceiling cpu.Freq) cpu.Freq {
	s := l.steps
	if backlogMs <= 0 {
		return s[0].f
	}
	i := 0
	for i < len(s)-1 && !(backlogMs <= s[i].upTo) {
		i++
	}
	f := s[i].f
	if f > ceiling {
		f = ceiling
	}
	if f < s[0].f {
		f = s[0].f
	}
	return f
}

// EstFinishMs estimates when the replica would finish r if routed there:
// queue drain plus r's base service at the replica's ceiling-limited service
// frequency. Deadline- and power-aware routing both rank on this.
func (st *RouteState) EstFinishMs(shard, replica int, r *Request) float64 {
	c := st.topo.Core(shard, replica)
	return st.finishAt(st.vFinish[c], st.ceiling(c), r)
}

// finishAt is EstFinishMs for a replica whose virtual finish time is vf and
// whose ceiling is ceil. r's service at the default frequency is the one
// route computed for the query being routed when r is that query.
func (st *RouteState) finishAt(vf float64, ceil cpu.Freq, r *Request) float64 {
	start := st.now
	if vf > start {
		start = vf
	}
	if ceil >= cpu.FDefault && r == &st.q {
		return start + st.qBaseMs
	}
	if ceil > cpu.FDefault {
		ceil = cpu.FDefault
	}
	return start + cpu.TimeFor(r.BaseWork, ceil)
}

// assign commits the query being routed to the core, advancing its virtual
// finish time with the broker's exact accounting (start at max(arrival,
// vFinish), serve BaseWork at the default frequency).
func (st *RouteState) assign(c int) {
	start := st.q.ArrivalMs
	if st.vFinish[c] > start {
		start = st.vFinish[c]
	}
	st.vFinish[c] = start + st.qBaseMs
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

func (RouterRoundRobin) Pick(st *RouteState, shard int, r *Request) int {
	if st.rr == nil {
		st.rr = make([]int, st.topo.Shards)
	}
	j := st.rr[shard]
	st.rr[shard] = (j + 1) % st.Replicas()
	return j
}

// RouterLeastLoaded picks the replica with the earliest virtual finish time,
// first minimal index on exact ties — the §V broker's dispatch rule lifted to
// a shard's replica set; over a single shard it is the broker (Dispatch).
// Draw-free.
type RouterLeastLoaded struct{}

func (RouterLeastLoaded) Name() string { return "least-loaded" }

// Pick compares the virtual finish times' bits: vFinish is finite and never
// below +0, where the IEEE 754 bit patterns order as the values do, and an
// integer minimum compiles to conditional moves where a float one branches
// on every replica.
func (RouterLeastLoaded) Pick(st *RouteState, shard int, r *Request) int {
	reps := st.topo.ReplicasPerShard
	vf := st.vFinish[shard*reps:][:reps]
	best, bestBits := 0, math.Float64bits(vf[0])
	for j := 1; j < len(vf); j++ {
		if b := math.Float64bits(vf[j]); b < bestBits {
			best, bestBits = j, b
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

func (RouterDeadlineAware) Pick(st *RouteState, shard int, r *Request) int {
	reps := st.Replicas()
	bestMeet, bestMeetEst := -1, math.Inf(-1)
	bestAny, bestAnyEst := 0, math.Inf(1)
	for j := 0; j < reps; j++ {
		c := shard*reps + j
		est := st.finishAt(st.vFinish[c], st.ceiling(c), r)
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

func (RouterPowerAware) Pick(st *RouteState, shard int, r *Request) int {
	reps := st.Replicas()
	st.law.build(st.ladder, st.budgetMs)
	lo := shard * reps
	bestAny, bestAnyEst := 0, math.Inf(1)
	best, ties := -1, 0
	var bestFreq cpu.Freq
	var bestVF float64
	for j, vf := range st.vFinish[lo : lo+reps] {
		ceil := st.ceiling(lo + j)
		est := st.finishAt(vf, ceil, r)
		if est < bestAnyEst {
			bestAny, bestAnyEst = j, est
		}
		if est > r.DeadlineMs {
			continue
		}
		pf := st.law.freq(vf-st.now, ceil)
		switch {
		// Planned freqs are discrete ladder levels and vFinish ties are exact by
		// construction, so equal scores pool for the tie-break draw.
		case best < 0 || pf > bestFreq || (pf == bestFreq && vf < bestVF):
			best, ties, bestFreq, bestVF = j, 1, pf, vf
		case pf == bestFreq && vf == bestVF:
			ties++
		}
	}
	switch {
	case best < 0:
		return bestAny
	case ties == 1:
		return best
	}
	// The seeded routing stream draws one of the tied replicas, counted in
	// index order from best (no earlier replica can tie it); Intn on a
	// rand.Rand does not allocate.
	if st.rng == nil {
		st.rng = NewPartitionedRNG(st.seed).Routing()
	}
	k := st.rng.Intn(ties)
	for j := best; j < reps; j++ {
		vf, ceil := st.vFinish[lo+j], st.ceiling(lo+j)
		if vf == bestVF && !(st.finishAt(vf, ceil, r) > r.DeadlineMs) && st.law.freq(vf-st.now, ceil) == bestFreq {
			if k == 0 {
				return j
			}
			k--
		}
	}
	return best
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
	// order).
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
	// PerCore holds each replica core's result, without its records. With
	// one shard each core's Latencies are sorted ascending, as sim.Run's;
	// with more they keep completion order (deterministic, but not a
	// percentile's input: the query latencies are QueryLatencies).
	PerCore []*Result

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
	tr := new(TopologyResult)
	runTopology(tr, tc, wl, workers, mkPolicy)
	return tr
}

// runTopology is RunTopologyWorkers writing into tr, which RunClusterWorkers
// embeds.
func runTopology(tr *TopologyResult, tc TopologyConfig, wl *Workload, workers int, mkPolicy func(core int) Policy) {
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

	// --- routing pre-pass (serial, virtual state only) --------------------
	st := newRouteState(topo, wl.BudgetMs, cfg.Ladder, tc.Seed)
	var coord *PowerCapCoordinator
	if tc.PowerCapW > 0 {
		coord = newPowerCapCoordinator(tc.PowerCapW, tc.CapIntervalMs, cfg.Power, st)
	}
	legs, counts := st.route(wl, router, coord)

	// --- independent per-core simulations (sharded) -----------------------
	// Each core's job builds its own records from its leg list before it runs.
	// One shard's query latencies are its cores' sorted runs merged; more
	// shards' are stragglers taken from the records, and their cores' runs
	// stay unsorted.
	lists := carveLists(legs, topo.Shards, counts)
	results := runCores(cfg, wl, lists, workers, mkPolicy, coord, topo.Shards == 1)

	// --- deterministic merge ----------------------------------------------
	*tr = TopologyResult{
		Topology:    topo,
		Router:      router.Name(),
		PerCore:     results,
		Queries:     wl.Len(),
		DurationMs:  wl.DurationMs,
		RouteCounts: counts,
	}
	for _, res := range results {
		tr.ShardRequests += res.Total
		tr.ShardDrops += res.Dropped
		tr.Events += res.Events
		tr.EnergyMJ += res.EnergyMJ
	}
	if topo.Shards == 1 {
		// Every query is one leg, so the cores' counts and their sorted
		// latency runs are the queries'.
		for _, res := range results {
			tr.Completed += res.Completed
			tr.Dropped += res.Dropped
			tr.Violations += res.Violations
		}
		tr.QueryLatencies = allLatencies(results, workers)
	} else {
		tr.mergeStragglers(wl, legs)
	}
	for _, res := range results {
		res.Requests = nil
	}
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
}

// mergeStragglers accounts queries fanned over several shards in arrival
// order: a query is dropped if any of its legs was, and otherwise completes
// at its slowest leg's finish. A core's records hold its legs in query
// order, so one cursor per core finds every leg of the table without a
// per-leg pointer.
func (tr *TopologyResult) mergeStragglers(wl *Workload, legs []int32) {
	shards, results := tr.Topology.Shards, tr.PerCore
	tr.QueryLatencies = make([]float64, 0, tr.Queries)
	cursor := make([]int, len(results))
	for qi, at := range wl.ArrivalMs {
		dropped := false
		finish := math.Inf(-1)
		for _, c := range legs[qi*shards:][:shards] {
			cl := &results[c].Requests[cursor[c]]
			cursor[c]++
			if cl.Dropped {
				dropped = true
			}
			if cl.FinishMs > finish {
				finish = cl.FinishMs
			}
		}
		if dropped {
			tr.Dropped++
			continue
		}
		tr.Completed++
		tr.QueryLatencies = append(tr.QueryLatencies, finish-at)
		if finish > at+wl.BudgetMs {
			tr.Violations++
		}
	}
	stats.SortAscending(tr.QueryLatencies)
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
