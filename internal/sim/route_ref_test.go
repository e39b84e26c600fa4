package sim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"gemini/internal/cpu"
)

// The reference routing pass: the planned-frequency law as a divide and a
// ladder search, the estimated finish as a divide per replica, and the
// deadline- and power-aware routers and the cap coordinator written on them.
// The pass computes the law from a threshold table and serves the query's
// default-frequency service time once per query; these are the loops it must
// agree with bit for bit.

// refPlannedFreqFor is the modeled-DVFS law: backlogMs of work-time at the
// default frequency must drain within budgetMs, so the planned frequency is
// FDefault·backlog/budget clamped up to a ladder level and down to the
// ceiling. Zero backlog (or a degenerate budget) models an idle core at the
// ladder floor.
func refPlannedFreqFor(backlogMs, budgetMs float64, ladder *cpu.Ladder, ceiling cpu.Freq) cpu.Freq {
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

func refPlannedFreq(st *RouteState, shard, replica int) cpu.Freq {
	return refPlannedFreqFor(st.VFinish(shard, replica)-st.now, st.budgetMs, st.ladder, st.Ceiling(shard, replica))
}

// refEstFinishMs is queue drain plus r's base service at the replica's
// ceiling-limited service frequency, one divide per replica.
func refEstFinishMs(st *RouteState, shard, replica int, r *Request) float64 {
	start := st.now
	if vf := st.VFinish(shard, replica); vf > start {
		start = vf
	}
	sf := st.Ceiling(shard, replica)
	if sf > cpu.FDefault {
		sf = cpu.FDefault
	}
	return start + cpu.TimeFor(r.BaseWork, sf)
}

type refDeadlineAware struct{}

func (refDeadlineAware) Name() string { return "deadline-aware" }

func (refDeadlineAware) Pick(st *RouteState, shard int, r *Request) int {
	bestMeet, bestMeetEst := -1, math.Inf(-1)
	bestAny, bestAnyEst := 0, math.Inf(1)
	for j := 0; j < st.Replicas(); j++ {
		est := refEstFinishMs(st, shard, j, r)
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

type refPowerAware struct{}

func (refPowerAware) Name() string { return "power-aware" }

func (refPowerAware) Pick(st *RouteState, shard int, r *Request) int {
	bestAny, bestAnyEst := 0, math.Inf(1)
	var tied []int
	var bestFreq cpu.Freq
	var bestVF float64
	for j := 0; j < st.Replicas(); j++ {
		est := refEstFinishMs(st, shard, j, r)
		if est < bestAnyEst {
			bestAny, bestAnyEst = j, est
		}
		if est > r.DeadlineMs {
			continue
		}
		pf, vf := refPlannedFreq(st, shard, j), st.VFinish(shard, j)
		switch {
		case len(tied) == 0 || pf > bestFreq || (pf == bestFreq && vf < bestVF):
			bestFreq, bestVF = pf, vf
			tied = append(tied[:0], j)
		case pf == bestFreq && vf == bestVF:
			tied = append(tied, j)
		}
	}
	switch len(tied) {
	case 0:
		return bestAny
	case 1:
		return tied[0]
	}
	if st.rng == nil {
		st.rng = NewPartitionedRNG(st.seed).Routing()
	}
	return tied[st.rng.Intn(len(tied))]
}

// refCoordinator is the cap coordinator on the reference law: at every
// boundary, ceilings restart at the ladder top and the hottest replica steps
// down one level at a time until the modeled watts fit.
type refCoordinator struct {
	capW, intervalMs float64
	model            *cpu.PowerModel
	st               *RouteState

	next      float64
	throttles int
	seriesW   []float64
	seriesThr []int
	schedules [][]CeilingStep
}

func newRefCoordinator(capW, intervalMs float64, model *cpu.PowerModel, st *RouteState) *refCoordinator {
	if intervalMs <= 0 {
		intervalMs = DefaultCapIntervalMs
	}
	st.ceilings = make([]cpu.Freq, len(st.vFinish))
	for c := range st.ceilings {
		st.ceilings[c] = st.ladder.Max()
	}
	return &refCoordinator{capW: capW, intervalMs: intervalMs, model: model, st: st,
		next: intervalMs, schedules: make([][]CeilingStep, len(st.vFinish))}
}

func (pc *refCoordinator) advanceTo(now float64) {
	for pc.next <= now {
		pc.adjust(pc.next)
		pc.next += pc.intervalMs
	}
}

func (pc *refCoordinator) adjust(t float64) {
	st, l := pc.st, pc.st.ladder
	n := len(st.ceilings)
	before := pc.throttles
	eff, ceil, busy := make([]cpu.Freq, n), make([]cpu.Freq, n), make([]bool, n)
	watts := pc.model.UncoreW
	for c := range n {
		eff[c] = refPlannedFreqFor(st.vFinish[c]-t, st.budgetMs, l, l.Max())
		busy[c] = st.vFinish[c] > t
		watts += pc.model.CoreW(eff[c], busy[c])
		ceil[c] = l.Max()
	}
	for watts > pc.capW {
		hot := -1
		for c := range n {
			if eff[c] > l.Min() && (hot < 0 || eff[c] > eff[hot]) {
				hot = c
			}
		}
		if hot < 0 {
			break
		}
		watts -= pc.model.CoreW(eff[hot], busy[hot])
		eff[hot] = l.StepDown(eff[hot])
		ceil[hot] = eff[hot]
		watts += pc.model.CoreW(eff[hot], busy[hot])
		pc.throttles++
	}
	for c := range n {
		if ceil[c] != st.ceilings[c] {
			pc.schedules[c] = append(pc.schedules[c], CeilingStep{AtMs: t, Ceiling: ceil[c]})
			st.ceilings[c] = ceil[c]
		}
	}
	pc.seriesW = append(pc.seriesW, watts)
	pc.seriesThr = append(pc.seriesThr, pc.throttles-before)
}

// refRoute is the routing pass with the broker's accounting computed per
// assignment, on a record of its own.
func refRoute(st *RouteState, wl *Workload, router Router, coord *refCoordinator) (legs []int32, counts []uint64) {
	shards, reps := st.topo.Shards, st.topo.ReplicasPerShard
	legs = make([]int32, wl.Len()*shards)
	counts = make([]uint64, st.topo.Cores())
	var q Request
	for qi := range wl.Len() {
		wl.record(&q, qi)
		st.now = q.ArrivalMs
		if coord != nil {
			coord.advanceTo(q.ArrivalMs)
		}
		for s := range shards {
			j := router.Pick(st, s, &q)
			if j < 0 || j >= reps {
				j = 0
			}
			c := st.topo.Core(s, j)
			legs[qi*shards+s] = int32(c)
			counts[c]++
			start := q.ArrivalMs
			if st.vFinish[c] > start {
				start = st.vFinish[c]
			}
			st.vFinish[c] = start + cpu.TimeFor(q.BaseWork, cpu.FDefault)
		}
	}
	if coord != nil {
		coord.advanceTo(wl.DurationMs)
	}
	return legs, counts
}

// detached hands its router a copy of the record being routed, as a wrapping
// router may: the pass's per-query service time must then serve nothing.
type detached struct{ Router }

func (d detached) Pick(st *RouteState, shard int, r *Request) int {
	q := *r
	return d.Router.Pick(st, shard, &q)
}

// checkLawAtThresholds compares the table with the reference law at every
// threshold, at the float on either side of it and under every ceiling.
func checkLawAtThresholds(t *testing.T, l *cpu.Ladder, budgetMs float64) {
	t.Helper()
	st := newRouteState(Topology{}, budgetMs, l, 0)
	st.law.build(l, budgetMs)
	ceilings := append(l.Levels(), l.Min()/2, l.Max()*2)
	for _, s := range st.law.steps {
		for _, b := range []float64{math.Nextafter(s.upTo, math.Inf(-1)), s.upTo, math.Nextafter(s.upTo, math.Inf(1))} {
			for _, ceil := range ceilings {
				if got, want := st.law.freq(b, ceil), refPlannedFreqFor(b, budgetMs, l, ceil); got != want {
					t.Fatalf("%v budget %v: backlog %v (threshold %v of %v) ceiling %v plans %v, reference %v",
						l, budgetMs, b, s.upTo, s.f, ceil, got, want)
				}
			}
		}
	}
}

// fuzzLadder is the default ladder for sel 0, else 1–10 levels drawn from
// seed: tenths of a GHz or arbitrary values, below and above FDefault.
func fuzzLadder(sel uint8, seed int64) *cpu.Ladder {
	if sel%3 == 0 {
		return cpu.DefaultLadder()
	}
	rng := rand.New(rand.NewSource(seed))
	levels := make([]cpu.Freq, 1+rng.Intn(10))
	for i := range levels {
		f := 0.3 + 3.5*rng.Float64()
		if sel%3 == 1 {
			f = math.Round(10*f) / 10
		}
		levels[i] = cpu.Freq(f)
	}
	return cpu.NewLadder(levels)
}

// fuzzBudgets are the latency budgets the fuzz target draws from: the
// platform's, the degenerate ones (a NaN budget makes every deadline NaN)
// and the extremes of the float64 range.
var fuzzBudgets = []float64{40, 0, -5, math.SmallestNonzeroFloat64, 1e-9, 1e300, math.MaxFloat64, math.Inf(1), math.NaN(), 7.3}

// TestPlannedFreqThresholds holds the planned-frequency table to the divide
// and the ladder search at each threshold and the next float above it, on the
// default ladder and drawn ones, for every budget the fuzz target draws.
func TestPlannedFreqThresholds(t *testing.T) {
	for sel := range uint8(3) {
		for seed := range int64(4) {
			for _, budget := range fuzzBudgets {
				checkLawAtThresholds(t, fuzzLadder(sel, seed), budget)
			}
		}
	}
	// The default ladder at the platform's budget: every threshold is a
	// positive finite backlog, so the table has a level to answer for each.
	st := newRouteState(Topology{}, 40, cpu.DefaultLadder(), 0)
	st.law.build(st.ladder, 40)
	for i, s := range st.law.steps[:len(st.law.steps)-1] {
		if !(s.upTo > 0) || math.IsInf(s.upTo, 0) || (i > 0 && s.upTo <= st.law.steps[i-1].upTo) {
			t.Errorf("threshold %d (%v GHz) = %v, want positive, finite and above the last", i, s.f, s.upTo)
		}
	}
	// A budget that is not positive plans every backlog at the ladder top.
	for _, budget := range []float64{0, -1, math.NaN()} {
		st := newRouteState(Topology{}, budget, cpu.DefaultLadder(), 0)
		if got := st.PlannedFreq(0, 0); got != cpu.FMin {
			t.Errorf("budget %v: idle replica plans %v, want the floor", budget, got)
		}
		st.vFinish[0] = 1e-300
		if got := st.PlannedFreq(0, 0); got != cpu.FMax {
			t.Errorf("budget %v: backlog plans %v, want the top", budget, got)
		}
	}
}

// FuzzRoutePassMatchesReference holds the routing pass — the threshold
// table, the per-query service time and the routers and coordinator on them
// — to the reference pass: the same legs, counts, ceiling schedules and
// modeled power series, on topologies from 1×1 to 8×4, with no cap, a tight
// one and a loose one, at degenerate and extreme budgets, on the default and
// drawn ladders. It also compares the law with the reference at a fuzzed
// backlog and at every threshold of the run's table.
func FuzzRoutePassMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(7), uint8(2), uint8(3), uint8(2), uint8(0), uint8(0), int64(0), 12.5)
	f.Add(int64(5), uint8(3), uint8(3), uint8(2), uint8(1), uint8(1), uint8(1), int64(3), 0.0)
	f.Add(int64(-3), uint8(0), uint8(0), uint8(1), uint8(0), uint8(2), uint8(2), int64(9), math.NaN())
	f.Add(int64(11), uint8(5), uint8(1), uint8(7), uint8(2), uint8(4), uint8(4), int64(-2), 1e-310)
	f.Fuzz(func(t *testing.T, seed int64, shards, reps, routerSel, capSel, budgetSel, ladderSel uint8, ladderSeed int64, backlog float64) {
		topo := Topology{Shards: 1 + int(shards%8), ReplicasPerShard: 1 + int(reps%4)}
		l := fuzzLadder(ladderSel, ladderSeed)
		budget := fuzzBudgets[int(budgetSel)%len(fuzzBudgets)]
		m := cpu.DefaultPowerModel()

		checkLawAtThresholds(t, l, budget)
		one := newRouteState(Topology{}, budget, l, 0)
		one.vFinish[0] = backlog
		if got, want := one.PlannedFreq(0, 0), refPlannedFreqFor(backlog, budget, l, l.Max()); got != want {
			t.Fatalf("%v budget %v: backlog %v plans %v, reference %v", l, budget, backlog, got, want)
		}
		for _, ceil := range append(l.Levels(), l.Min()/2) {
			if got, want := one.law.freq(backlog, ceil), refPlannedFreqFor(backlog, budget, l, ceil); got != want {
				t.Fatalf("%v budget %v: backlog %v ceiling %v plans %v, reference %v", l, budget, backlog, ceil, got, want)
			}
		}

		routers := []struct{ pass, ref Router }{
			{RouterRoundRobin{}, RouterRoundRobin{}},
			{RouterLeastLoaded{}, RouterLeastLoaded{}},
			{RouterDeadlineAware{}, refDeadlineAware{}},
			{RouterPowerAware{}, refPowerAware{}},
		}
		rt := routers[int(routerSel%4)]
		if routerSel&4 != 0 {
			rt.pass = detached{rt.pass}
		}
		floorW := clusterFloorW(m, l, topo.Cores())
		maxW := m.UncoreW + float64(topo.Cores())*m.CoreW(l.Max(), true)
		capW := 0.0
		switch capSel % 3 {
		case 1:
			capW = floorW + 0.1*(maxW-floorW)
		case 2:
			capW = floorW + 0.7*(maxW-floorW)
		}
		intervalMs := 5 + float64(uint64(seed)%60)
		wl := clusterWorkload(120, 6/float64(topo.ReplicasPerShard), 6, seed)
		wl.BudgetMs = budget

		st := newRouteState(topo, budget, l, seed)
		var coord *PowerCapCoordinator
		if capW > 0 {
			coord = newPowerCapCoordinator(capW, intervalMs, m, st)
		}
		legs, counts := st.route(wl, rt.pass, coord)

		ref := newRouteState(topo, budget, l, seed)
		var refCoord *refCoordinator
		if capW > 0 {
			refCoord = newRefCoordinator(capW, intervalMs, m, ref)
		}
		refLegs, refCounts := refRoute(ref, wl, rt.ref, refCoord)

		what := rt.pass.Name() + " on " + l.String()
		if !reflect.DeepEqual(legs, refLegs) || !reflect.DeepEqual(counts, refCounts) {
			t.Fatalf("%s %dx%d budget %v cap %v: legs or counts differ from the reference", what, topo.Shards, topo.ReplicasPerShard, budget, capW)
		}
		if !reflect.DeepEqual(st.vFinish, ref.vFinish) {
			t.Fatalf("%s budget %v: virtual finish times differ from the reference", what, budget)
		}
		if coord == nil {
			return
		}
		if coord.throttles != refCoord.throttles || !reflect.DeepEqual(coord.seriesThr, refCoord.seriesThr) {
			t.Fatalf("%s cap %v: throttles %d vs %d", what, capW, coord.throttles, refCoord.throttles)
		}
		if len(coord.seriesW) != len(refCoord.seriesW) {
			t.Fatalf("%s cap %v: %d boundaries vs %d", what, capW, len(coord.seriesW), len(refCoord.seriesW))
		}
		for i, w := range coord.seriesW {
			if math.Float64bits(w) != math.Float64bits(refCoord.seriesW[i]) {
				t.Fatalf("%s cap %v: boundary %d modeled %v W, reference %v W", what, capW, i, w, refCoord.seriesW[i])
			}
		}
		for c := range topo.Cores() {
			if !reflect.DeepEqual(coord.Schedule(c), refCoord.schedules[c]) {
				t.Fatalf("%s cap %v: core %d's ceiling schedule differs from the reference", what, capW, c)
			}
		}
	})
}
