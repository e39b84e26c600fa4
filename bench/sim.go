package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"gemini/internal/core"
	"gemini/internal/cpu"
	"gemini/internal/harness"
	"gemini/internal/par"
	"gemini/internal/sim"
	"gemini/internal/telemetry"
	"gemini/internal/trace"
)

// ROADMAP's canonical cluster cell: 8 shards x 3 replicas, power-aware
// router, 40 W cap, policy Gemini, engine RPS 60 (harness.TimelineSpec's
// zero value runs the same cell for 3 s).
const (
	cellShards   = 8
	cellReplicas = 3
	cellCapW     = 40
	cellRPS      = 60
	cellPolicy   = "Gemini"
	sampleMs     = 100 // sim_observed's timeline interval
	sweepCores   = 12
)

// sweepRPS is the engine-RPS axis of sim_sweep: the ends and the middle of
// the paper's Fig. 10/11 sweep.
var sweepRPS = []float64{20, 60, 100}

// callCost is what a timing decorator saw: calls and their summed host time.
type callCost struct{ calls, ns int64 }

// per returns mean nanoseconds per unit, less emptyNs for every call: what
// the decorator reads around a call that does nothing.
func (c callCost) per(units int64, emptyNs float64) float64 {
	if units == 0 {
		return 0
	}
	return math.Max(0, float64(c.ns)-float64(c.calls)*emptyNs) / float64(units)
}

// emptyCallNs times the decorator around a callback that does nothing, so
// that its own clock reads can be taken out of what it reports.
func emptyCallNs() float64 {
	const n = 200000
	t := &timedPolicy{inner: &sim.FixedPolicy{}}
	for i := 0; i < n; i++ {
		t.OnArrival(nil, nil)
	}
	return float64(t.cost.ns) / n
}

// timedPolicy forwards every sim.Policy callback to inner and times it.
type timedPolicy struct {
	inner sim.Policy
	cost  callCost
}

func (t *timedPolicy) Name() string { return t.inner.Name() }

func (t *timedPolicy) took(t0 time.Time) {
	t.cost.calls++
	t.cost.ns += time.Since(t0).Nanoseconds()
}

func (t *timedPolicy) Init(s *sim.Sim) {
	t0 := time.Now()
	t.inner.Init(s)
	t.took(t0)
}

func (t *timedPolicy) OnArrival(s *sim.Sim, r *sim.Request) {
	t0 := time.Now()
	t.inner.OnArrival(s, r)
	t.took(t0)
}

func (t *timedPolicy) OnStart(s *sim.Sim, r *sim.Request) {
	t0 := time.Now()
	t.inner.OnStart(s, r)
	t.took(t0)
}

func (t *timedPolicy) OnDeparture(s *sim.Sim, r *sim.Request) {
	t0 := time.Now()
	t.inner.OnDeparture(s, r)
	t.took(t0)
}

func (t *timedPolicy) OnTimer(s *sim.Sim, tag int64) {
	t0 := time.Now()
	t.inner.OnTimer(s, tag)
	t.took(t0)
}

// timedRouter forwards sim.Router.Pick to inner and times it.
type timedRouter struct {
	inner sim.Router
	cost  callCost
}

func (t *timedRouter) Name() string { return t.inner.Name() }

func (t *timedRouter) Pick(st *sim.RouteState, shard int, r *sim.Request) int {
	t0 := time.Now()
	j := t.inner.Pick(st, shard, r)
	t.cost.calls++
	t.cost.ns += time.Since(t0).Nanoseconds()
	return j
}

// simDeco collects what the decorators of a traced sim_* run saw.
type simDeco struct {
	router   callCost
	policy   map[string]callCost // by policy name
	requests map[string]int64    // requests the policy's instances served
}

func newSimDeco() *simDeco {
	return &simDeco{policy: map[string]callCost{}, requests: map[string]int64{}}
}

func (d *simDeco) addPolicy(name string, pols []*timedPolicy, requests int) {
	c := d.policy[name]
	for _, p := range pols {
		c.calls += p.cost.calls
		c.ns += p.cost.ns
	}
	d.policy[name] = c
	d.requests[name] += int64(requests)
}

// policyMetric is the per-layer name of a policy's cost row.
func policyMetric(policy string) string {
	return "policy." + strings.ToLower(policy) + ".ns_per_request"
}

// fill writes the decorators' rows into the traced run's per-layer metrics.
func (d *simDeco) fill(layer map[string]float64, emptyNs float64) {
	layer["sim.router_picks"] = float64(d.router.calls)
	layer["sim.router_pick_ns"] = d.router.per(d.router.calls, emptyNs)
	for name, c := range d.policy {
		layer[policyMetric(name)] = c.per(d.requests[name], emptyNs)
	}
	layer["policy.gemini.callbacks"] = float64(d.policy[cellPolicy].calls)
}

// simStats is the modelled outcome a sim_* workload accumulates over its
// repetitions, beside the hash that lets two commits be compared exactly.
type simStats struct {
	h          *fnv64
	powerW     float64 // summed over repetitions
	reps       int
	violations int
	queries    int
	throttles  int
	events     uint64
}

func newSimStats() *simStats { return &simStats{h: newFNV()} }

// fnv64 is FNV-1a over 64-bit words. hash/fnv would do, but its Write takes
// a slice through an interface, which costs the timed region an allocation
// per word.
type fnv64 uint64

func newFNV() *fnv64 {
	h := fnv64(14695981039346656037)
	return &h
}

func hashU64(h *fnv64, v uint64) {
	for i := 0; i < 8; i++ {
		*h = (*h ^ fnv64(v&0xff)) * 1099511628211
		v >>= 8
	}
}

func hashFloats(h *fnv64, xs []float64) {
	hashU64(h, uint64(len(xs)))
	for _, x := range xs {
		hashU64(h, math.Float64bits(x))
	}
}

// hashTopology folds a topology run's simulated statistics into h. events is
// a parameter so an observed run can leave its sampler ticks out.
func hashTopology(h *fnv64, r *sim.TopologyResult, events uint64) {
	for _, v := range []int{r.Queries, r.Completed, r.Dropped, r.Violations, r.ShardRequests, r.ShardDrops, r.CapThrottles} {
		hashU64(h, uint64(v))
	}
	hashU64(h, events)
	hashU64(h, math.Float64bits(r.EnergyMJ))
	hashU64(h, math.Float64bits(r.PeakModeledPowerW))
	hashFloats(h, r.QueryLatencies)
	hashFloats(h, r.ModeledPowerW)
	for _, c := range r.RouteCounts {
		hashU64(h, c)
	}
}

// hashResult folds a single-ISN or per-core run into h.
func hashResult(h *fnv64, r *sim.Result) {
	for _, v := range []int{r.Total, r.Completed, r.Dropped, r.Violations, r.Transitions} {
		hashU64(h, uint64(v))
	}
	hashU64(h, r.Events)
	hashU64(h, math.Float64bits(r.EnergyMJ))
	hashFloats(h, r.Latencies)
}

// sameOutcome reports whether two runs of one repetition agree: every count
// and the cap coordinator's power series exactly, and latencies and energy
// bit for bit when exact, else to one part in 1e9. The tolerance is for
// sim_observed: the timeline sampler splits the engine's accrual intervals
// at its ticks, which moves the last bits of a completion time or an energy
// sum without changing any decision.
func sameOutcome(a, b cellRun, exact bool) bool {
	ra, rb := a.res, b.res
	counts := func(r *sim.TopologyResult) [7]int {
		return [7]int{r.Queries, r.Completed, r.Dropped, r.Violations, r.ShardRequests, r.ShardDrops, r.CapThrottles}
	}
	if counts(ra) != counts(rb) || a.modelEvent != b.modelEvent ||
		len(ra.QueryLatencies) != len(rb.QueryLatencies) || len(ra.ModeledPowerW) != len(rb.ModeledPowerW) {
		return false
	}
	for i, c := range ra.RouteCounts {
		if c != rb.RouteCounts[i] {
			return false
		}
	}
	same := func(x, y float64) bool {
		if exact {
			return math.Float64bits(x) == math.Float64bits(y)
		}
		return math.Abs(x-y) <= 1e-9*math.Abs(x)
	}
	for i, w := range ra.ModeledPowerW {
		if math.Float64bits(w) != math.Float64bits(rb.ModeledPowerW[i]) {
			return false
		}
	}
	for i, l := range ra.QueryLatencies {
		if !same(l, rb.QueryLatencies[i]) {
			return false
		}
	}
	return same(ra.EnergyMJ, rb.EnergyMJ)
}

// cellRun is one repetition of the cluster cell.
type cellRun struct {
	res        *sim.TopologyResult
	modelEvent uint64 // res.Events without the sampler's timer events
	spans      uint64
	decisions  uint64
}

// cell runs repetition rep of the canonical cluster cell: arrivals, workload
// and routing all seeded seed+rep. observed attaches every telemetry sink;
// deco, when non-nil, wraps the router and each core's policy in the timing
// decorators.
func (b *bench) cell(rep, workers int, observed bool, rec *recorder, deco *simDeco) cellRun {
	p, seed, simMs := b.p, b.seed+int64(rep), b.size.cellSimMs
	root := rec.start("sim.cell_rep", rep, -1)
	sp := rec.start("trace.gen", rep, root)
	tr := trace.GenFixedRPS(cellRPS*p.Opt.ShardFraction*cellReplicas, simMs, seed)
	rec.end(sp)
	sp = rec.start("harness.workload", rep, root)
	wl := p.Workload(tr.Arrivals, simMs, seed)
	rec.end(sp)

	topo := sim.Topology{Shards: cellShards, ReplicasPerShard: cellReplicas}
	cfg := p.SimConfig()
	var ticks uint64
	if observed {
		cfg.Tracer = telemetry.NewTracer(512)
		cfg.Spans = telemetry.NewSpanTracer(4096)
		cfg.Series = sim.NewRunTimeseries(cfg.Ladder, simMs, sampleMs)
		ticks = uint64(topo.Cores() * telemetry.SampleCount(simMs, sampleMs))
	}
	var router sim.Router = sim.RouterPowerAware{}
	mk := func(int) sim.Policy { return p.MustPolicy(cellPolicy) }
	var tRouter *timedRouter
	var tPols []*timedPolicy
	if deco != nil {
		tRouter = &timedRouter{inner: router}
		router = tRouter
		tPols = make([]*timedPolicy, topo.Cores())
		mk = func(c int) sim.Policy {
			tPols[c] = &timedPolicy{inner: p.MustPolicy(cellPolicy)}
			return tPols[c]
		}
	}
	tc := sim.TopologyConfig{Sim: cfg, Topology: topo, Router: router, Seed: seed, PowerCapW: cellCapW}
	sp = rec.start("sim.run_topology", rep, root)
	res := sim.RunTopologyWorkers(tc, wl, workers, mk)
	rec.end(sp)
	rec.end(root)

	if deco != nil {
		deco.router.calls += tRouter.cost.calls
		deco.router.ns += tRouter.cost.ns
		deco.addPolicy(cellPolicy, tPols, res.ShardRequests)
	}
	cr := cellRun{res: res, modelEvent: res.Events - ticks}
	if observed {
		cr.spans, cr.decisions = cfg.Spans.Total(), cfg.Tracer.Emitted()
	}
	return cr
}

// cellOutcome carries what the cell workloads need beyond the result: the
// reference timing the per-layer ratios are taken against.
type cellOutcome struct {
	refNs      int64 // host time of the reference re-runs (serial for sim_cell, unobserved for sim_observed)
	refEvents  uint64
	refMallocs uint64
	requests   int64 // shard requests, which is what the policies served
	spans      uint64
	decisions  uint64
}

// runCell is sim_cell (observed false) and sim_observed (observed true).
// After the timed segments it re-runs the first repetition of each segment
// as the reference: serially for sim_cell, whose workers must not change a
// result, and without sinks for sim_observed, whose sinks must not.
func (b *bench) runCell(observed bool, rec *recorder) *result {
	out := &cellOutcome{}
	res := &result{unit: "simulated events", cell: out}
	if rec != nil {
		res.deco = newSimDeco()
	}
	n := b.size.cellReps
	if observed {
		n = b.size.observedReps
	}
	workers := runtime.GOMAXPROCS(0)
	st := newSimStats()
	firsts := make([]cellRun, segments)

	for w := 0; w < max(1, n/10); w++ {
		b.cell(-1-w, workers, observed, nil, nil)
	}
	res.segs = measure(segments, func(i int) (float64, []float64) {
		var events uint64
		var lat []float64
		for j := 0; j < n; j++ {
			rep := i*n + j
			cr := b.cell(rep, workers, observed, rec, res.deco)
			r := cr.res
			res.attempted++
			if r.Completed+r.Dropped != r.Queries {
				res.fail("rep %d: completed %d + dropped %d != queries %d", rep, r.Completed, r.Dropped, r.Queries)
			}
			hashTopology(st.h, r, cr.modelEvent)
			if j == 0 {
				firsts[i] = cr
			}
			st.powerW += r.ClusterPowerW(b.p.Power)
			st.reps++
			st.violations += r.Violations
			st.queries += r.Queries
			st.throttles += r.CapThrottles
			st.events += r.Events
			events += r.Events
			lat = append(lat, r.QueryLatencies...)
			out.requests += int64(r.ShardRequests)
			out.spans += cr.spans
			out.decisions += cr.decisions
		}
		return float64(events), lat
	})

	refWorkers, what := 1, "serial run"
	if observed {
		refWorkers, what = workers, "run without sinks"
	}
	var m0, m1 runtime.MemStats
	for i := range firsts {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		cr := b.cell(i*n, refWorkers, false, nil, nil)
		out.refNs += time.Since(t0).Nanoseconds()
		runtime.ReadMemStats(&m1)
		out.refMallocs += m1.Mallocs - m0.Mallocs
		out.refEvents += cr.res.Events
		res.attempted++
		if !sameOutcome(firsts[i], cr, !observed) {
			res.fail("rep %d: simulated statistics differ from the %s", i*n, what)
		}
	}
	st.finish(res)
	return res
}

// finish publishes the accumulated statistics on the result.
func (st *simStats) finish(res *result) {
	res.fingerprint = fmt.Sprintf("%016x", uint64(*st.h))
	res.rows = map[string]float64{
		"model.power_w":       st.powerW / float64(max(st.reps, 1)),
		"model.violation_pct": 100 * float64(st.violations) / float64(max(st.queries, 1)),
		"sim.cap_throttles":   float64(st.throttles),
		"sim.events":          float64(st.events),
	}
}

// singleISN simulates one ISN at cellRPS for the cell's simulated duration
// and returns host nanoseconds per event: of sim.Run alone, or withBuild of
// arrivals and workload too, which is what a cell repetition times.
func (b *bench) singleISN(pol func() sim.Policy, withBuild bool) float64 {
	p, simMs := b.p, b.size.cellSimMs
	return medianOf(3, func(i int) float64 {
		t0 := time.Now()
		tr := trace.GenFixedRPS(cellRPS*p.Opt.ShardFraction, simMs, b.seed+int64(i))
		wl := p.Workload(tr.Arrivals, simMs, b.seed+int64(i))
		if !withBuild {
			t0 = time.Now()
		}
		r := sim.Run(p.SimConfig(), wl, pol())
		return float64(time.Since(t0).Nanoseconds()) / float64(r.Events)
	})
}

// cellLayers fills the per-layer rows of a traced sim_cell or sim_observed
// run. plain is the same work with tracing off.
func (b *bench) cellLayers(observed bool, plain, traced *result, rec *recorder) {
	l, po, to := b.layer, plain.cell, traced.cell
	for k, v := range traced.rows {
		l[k] = v
	}
	traced.deco.fill(l, emptyCallNs())
	l["harness.workload_ns_per_request"] = sum(rec.durationsNs("harness.workload")) * cellShards / float64(to.requests)
	l["trace.gen_ns_per_arrival"] = sum(rec.durationsNs("trace.gen")) * cellShards / float64(to.requests)

	plainNsPerEvent := 1e9 / rate(plain.segs)
	refNsPerEvent := float64(po.refNs) / float64(po.refEvents)
	if !observed {
		l["sim.cell_ns_per_event"] = plainNsPerEvent
		l["sim.topology_overhead_x"] = plainNsPerEvent / b.singleISN(func() sim.Policy { return b.p.MustPolicy(cellPolicy) }, true)
		l["sim.workers_speedup_x"] = refNsPerEvent / plainNsPerEvent
		return
	}
	l["telemetry.observed_slowdown_x"] = plainNsPerEvent / refNsPerEvent
	l["telemetry.observed_extra_allocs_per_event"] = allocsPerOp(plain.segs) - float64(po.refMallocs)/float64(po.refEvents)
	l["telemetry.spans_emitted"] = float64(to.spans)
	l["telemetry.decisions_emitted"] = float64(to.decisions)

	tracer := telemetry.NewTracer(512)
	l["telemetry.decision_emit_ns"] = timeCalls(200000, func(i int) {
		tracer.Emit(telemetry.Decision{Policy: cellPolicy, RequestID: i, CriticalID: -1})
	})
	spans := telemetry.NewSpanTracer(4096)
	l["telemetry.span_emit_ns"] = timeCalls(200000, func(i int) {
		spans.Emit(telemetry.Span{TraceID: "t", SpanID: "s", Name: "exec-initial", EndMs: float64(i)})
	})
	slo := telemetry.NewSLOTracker(telemetry.SLOConfig{DeadlineMs: b.p.Opt.BudgetMs, TargetPct: 99})
	l["telemetry.slo_observe_ns"] = timeCalls(200000, func(i int) {
		slo.Observe(float64(i), float64(i%50))
	})
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// runSweep is sim_sweep: per repetition, the five paper policies at three
// engine rates through sim.Run (cells fanned over par.Run) and through the
// 12-core sim.RunClusterWorkers, every cell building its own arrivals and
// workload inside the timed region as the harness grids do.
func (b *bench) runSweep(rec *recorder) *result {
	res := &result{unit: "simulated events"}
	if rec != nil {
		res.deco = newSimDeco()
	}
	st := newSimStats()
	var baseW, gemW float64 // socket watts summed over the single-ISN grid

	n := b.size.sweepReps
	b.sweepGrid(-1, b.size.sweepSimMs/10, nil, nil, nil)
	res.segs = measure(segments, func(i int) (float64, []float64) {
		var events uint64
		var lat []float64
		for j := 0; j < n; j++ {
			g := b.sweepGrid(i*n+j, b.size.sweepSimMs, rec, res.deco, res)
			for k, r := range g.single {
				hashResult(st.h, r)
				events += r.Events
				switch harness.PolicyNames[k%len(harness.PolicyNames)] {
				case "Baseline":
					baseW += r.SocketPowerW(b.p.Power)
				case cellPolicy:
					gemW += r.SocketPowerW(b.p.Power)
					st.violations += r.Violations
					st.queries += r.Total
				}
			}
			for _, r := range g.cluster {
				for _, core := range r.PerCore {
					hashResult(st.h, core)
				}
				events += r.Events
			}
			st.reps += len(sweepRPS)
			// The highest-rate Gemini cell is the tail the paper plots.
			lat = append(lat, g.single[len(g.single)-1].Latencies...)
		}
		st.events += events
		return float64(events), lat
	})
	st.powerW = gemW
	st.finish(res)
	res.rows["model.saving_pct"] = 100 * (1 - gemW/baseW)
	return res
}

// grid is one repetition of the sweep, cells in (rps, policy) order with
// policies in harness.PolicyNames order, so the last single cell is Gemini at
// the highest rate.
type grid struct {
	single  []*sim.Result
	cluster []*sim.ClusterResult
}

func (b *bench) sweepGrid(rep int, simMs float64, rec *recorder, deco *simDeco, res *result) grid {
	p, seed := b.p, b.seed+int64(rep)
	nPol := len(harness.PolicyNames)
	cells := len(sweepRPS) * nPol
	workers := runtime.GOMAXPROCS(0)
	root := rec.start("sim.sweep_rep", rep, -1)

	cfgFor := func(policy string) sim.Config {
		cfg := p.SimConfig()
		if policy == "Baseline" {
			cfg.PredictOverheadMs = 0 // no predictor runs under Baseline
		}
		return cfg
	}
	workload := func(k int, isnScale float64, parent int) *sim.Workload {
		i := k / nPol
		sp := rec.start("trace.gen", rep, parent)
		tr := trace.GenFixedRPS(sweepRPS[i]*p.Opt.ShardFraction*isnScale, simMs, seed+int64(i))
		rec.end(sp)
		sp = rec.start("harness.workload", rep, parent)
		wl := p.Workload(tr.Arrivals, simMs, seed+int64(i))
		rec.end(sp)
		return wl
	}

	g := grid{single: make([]*sim.Result, cells), cluster: make([]*sim.ClusterResult, cells)}
	singlePols := make([]*timedPolicy, cells)
	par.Run(workers, cells, func(k int) {
		name := harness.PolicyNames[k%nPol]
		cell := rec.start("sim.single_cell", rep, root)
		wl := workload(k, 1, cell)
		pol := p.MustPolicy(name)
		if deco != nil {
			singlePols[k] = &timedPolicy{inner: pol}
			pol = singlePols[k]
		}
		sp := rec.start("sim.run", rep, cell)
		g.single[k] = sim.Run(cfgFor(name), wl, pol)
		rec.end(sp)
		rec.end(cell)
	})
	for k := 0; k < cells; k++ {
		name := harness.PolicyNames[k%nPol]
		cell := rec.start("sim.cluster_cell", rep, root)
		wl := workload(k, sweepCores, cell)
		mk := func(int) sim.Policy { return p.MustPolicy(name) }
		var pols []*timedPolicy
		if deco != nil {
			pols = make([]*timedPolicy, sweepCores)
			mk = func(c int) sim.Policy {
				pols[c] = &timedPolicy{inner: p.MustPolicy(name)}
				return pols[c]
			}
		}
		sp := rec.start("sim.run_cluster", rep, cell)
		g.cluster[k] = sim.RunClusterWorkers(cfgFor(name), wl, sweepCores, workers, mk)
		rec.end(sp)
		rec.end(cell)
		if deco != nil {
			deco.addPolicy(name, pols, g.cluster[k].Total)
			deco.addPolicy(name, singlePols[k:k+1], g.single[k].Total)
		}
	}
	rec.end(root)

	if res != nil {
		for k := 0; k < cells; k++ {
			res.attempted += 2
			if r := g.single[k]; r.Completed+r.Dropped != r.Total {
				res.fail("rep %d cell %d: completed %d + dropped %d != requests %d", rep, k, r.Completed, r.Dropped, r.Total)
			}
			if r := g.cluster[k]; r.Completed+r.Dropped != r.Total {
				res.fail("rep %d cluster cell %d: completed %d + dropped %d != requests %d", rep, k, r.Completed, r.Dropped, r.Total)
			}
		}
	}
	return g
}

// sweepLayers fills the per-layer rows of a traced sim_sweep run, and the
// stand-alone probes of the layers only this workload leans on.
func (b *bench) sweepLayers(traced *result) {
	l, p := b.layer, b.p
	for k, v := range traced.rows {
		l[k] = v
	}
	traced.deco.fill(l, emptyCallNs())

	simMs := b.size.cellSimMs
	l["sim.engine_ns_per_event"] = b.singleISN(func() sim.Policy { return &sim.FixedPolicy{F: cpu.FDefault} }, false)

	var arrivals []float64
	l["trace.gen_ns_per_arrival"] = medianOf(3, func(i int) float64 {
		t0 := time.Now()
		arrivals = trace.GenFixedRPS(cellRPS*p.Opt.ShardFraction*sweepCores, simMs, b.seed+int64(i)).Arrivals
		return float64(time.Since(t0).Nanoseconds()) / float64(len(arrivals))
	})
	l["sim.build_workload_ns_per_request"] = medianOf(3, func(i int) float64 {
		t0 := time.Now()
		sim.BuildWorkload(p.Pool, arrivals, p.Jitter, p.Opt.BudgetMs, simMs, b.seed+int64(i))
		return float64(time.Since(t0).Nanoseconds()) / float64(len(arrivals))
	})
	var wl *sim.Workload
	l["harness.workload_ns_per_request"] = medianOf(3, func(i int) float64 {
		t0 := time.Now()
		wl = p.Workload(arrivals, simMs, b.seed+int64(i))
		return float64(time.Since(t0).Nanoseconds()) / float64(len(arrivals))
	})
	l["sim.dispatch_ns_per_request"] = medianOf(3, func(int) float64 {
		t0 := time.Now()
		sim.Dispatch(wl, sweepCores)
		return float64(time.Since(t0).Nanoseconds()) / float64(len(arrivals))
	})
	workers := runtime.GOMAXPROCS(0)
	l["sim.cluster12_ns_per_event"] = medianOf(3, func(int) float64 {
		t0 := time.Now()
		r := sim.RunClusterWorkers(p.SimConfig(), wl, sweepCores, workers, func(int) sim.Policy { return p.MustPolicy(cellPolicy) })
		return float64(time.Since(t0).Nanoseconds()) / float64(r.Events)
	})
	l["par.run_overhead_us"] = timeCalls(2000, func(int) { par.Run(workers, workers, func(int) {}) }) / 1e3

	params := core.DefaultParams()
	var sink core.Plan
	l["core.plan_group_ns"] = timeCalls(200000, func(i int) {
		predMs := 2 + float64(i%20)
		eW := params.EquivalentWork(params.HeadResidual(predMs, 1, 0), nil, predMs)
		sink = params.PlanGroup(0, p.Opt.BudgetMs, eW, 1)
	})
	_ = sink
}

// medianOf runs fn n times and returns the median of what it returned.
func medianOf(n int, fn func(i int) float64) float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = fn(i)
	}
	return median(v)
}
