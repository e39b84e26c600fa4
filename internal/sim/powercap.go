package sim

import "gemini/internal/cpu"

// Cluster power capping (Pegasus's original setting, lifted from one socket
// to the whole topology): a coordinator tracks modeled cluster watts under
// the CMOS power model and throttles per-replica frequency ceilings whenever
// the cap is exceeded.
//
// The coordinator lives entirely inside the deterministic routing pre-pass.
// At every control-interval boundary it recomputes, from scratch, the
// cheapest set of per-replica ceilings that brings the modeled cluster power
// under the cap given the replicas' current modeled load — stateless per
// boundary, which buys two properties the tests pin down:
//
//   - the invariant: modeled cluster power exceeds the cap for at most one
//     control interval — the boundary after a load spike always restores it
//     (or proves the cap is below the all-floor power, the physical limit);
//   - monotonicity: a higher cap's greedy throttle sequence is a prefix of a
//     lower cap's, so every ceiling is pointwise ≥ under a looser cap and
//     relaxing the cap can only improve tail latency on a fixed routing
//     (TestPowerCapMonotonicity).
//
// The resulting per-replica ceiling schedules are fixed before any core
// simulates, so cores stay share-nothing: each core's policy is wrapped in a
// cappedPolicy that replays its schedule via timers and clamps the frequency,
// and sharded execution stays byte-identical to serial.

// DefaultCapIntervalMs is the coordinator's control interval — 100 ms, the
// order of Pegasus's power-sampling epoch and long against Tdvfs.
const DefaultCapIntervalMs = 100.0

// CapTimerTag is the reserved (negative) timer tag cappedPolicy uses to
// replay ceiling schedules. Policies keep their own timer tags non-negative
// (every in-repo policy uses tag 0); Sim.SetTimer panics on a negative one.
const CapTimerTag int64 = -1

// SampleTimerTag is the reserved (negative) timer tag the timeline sampler
// (Config.Series) rides. Both engine loops intercept it before OnTimer, so
// no policy — cappedPolicy included — ever observes it.
const SampleTimerTag int64 = -2

// CeilingStep is one scheduled ceiling change for a replica core.
type CeilingStep struct {
	AtMs    float64
	Ceiling cpu.Freq
}

// PowerCapCoordinator enforces a modeled cluster power cap over the routing
// pre-pass's virtual replica state. See the file comment for the discipline.
type PowerCapCoordinator struct {
	capW       float64
	intervalMs float64
	model      *cpu.PowerModel
	ladder     *cpu.Ladder
	st         *RouteState

	next      float64 // next unprocessed boundary
	throttles int
	seriesT   []float64 // boundary timestamps, in processing order
	seriesW   []float64 // modeled watts per boundary, post-adjustment
	seriesThr []int     // ceiling step-downs applied at each boundary
	schedules [][]CeilingStep

	// adjust's per-boundary scratch, one entry per core: the planned frequency
	// as throttled so far, the new ceiling, and whether the core has backlog.
	eff, ceil []cpu.Freq
	busy      []bool
}

func newPowerCapCoordinator(capW, intervalMs float64, model *cpu.PowerModel, ladder *cpu.Ladder, st *RouteState) *PowerCapCoordinator {
	if intervalMs <= 0 {
		intervalMs = DefaultCapIntervalMs
	}
	n := len(st.ceilings)
	return &PowerCapCoordinator{
		capW:       capW,
		intervalMs: intervalMs,
		model:      model,
		ladder:     ladder,
		st:         st,
		next:       intervalMs,
		schedules:  make([][]CeilingStep, n),
		eff:        make([]cpu.Freq, n),
		ceil:       make([]cpu.Freq, n),
		busy:       make([]bool, n),
	}
}

// advanceTo processes every control boundary up to and including now.
func (pc *PowerCapCoordinator) advanceTo(now float64) {
	for pc.next <= now {
		pc.adjust(pc.next)
		pc.next += pc.intervalMs
	}
}

// finishTo processes the remaining boundaries through the workload horizon.
func (pc *PowerCapCoordinator) finishTo(endMs float64) { pc.advanceTo(endMs) }

// Schedule returns the core's ceiling-change schedule in time order.
func (pc *PowerCapCoordinator) Schedule(core int) []CeilingStep { return pc.schedules[core] }

// adjust recomputes every replica's ceiling at boundary t. Ceilings restart
// from the ladder top (statelessness), then the replica with the highest
// modeled planned frequency is stepped down one ladder level at a time until
// the modeled cluster power fits under the cap or every loaded replica sits
// at the floor.
//
//gemini:hotpath
func (pc *PowerCapCoordinator) adjust(t float64) {
	st := pc.st
	n := len(st.ceilings)
	top, floor := pc.ladder.Max(), pc.ladder.Min()
	throttlesBefore := pc.throttles

	// Uncapped plan: what each replica would run with no ceiling.
	eff, busy, ceil := pc.eff, pc.busy, pc.ceil
	watts := pc.model.UncoreW
	for c := 0; c < n; c++ {
		eff[c] = plannedFreqFor(st.vFinish[c]-t, st.budgetMs, pc.ladder, top)
		busy[c] = st.vFinish[c] > t
		watts += pc.model.CoreW(eff[c], busy[c])
		ceil[c] = top
	}
	for watts > pc.capW {
		// Highest effective planned frequency, lowest index on ties.
		hot := -1
		for c := 0; c < n; c++ {
			if eff[c] > floor && (hot < 0 || eff[c] > eff[hot]) {
				hot = c
			}
		}
		if hot < 0 {
			break // every replica at the floor: the cap is below modeled minimum
		}
		nf := pc.ladder.StepDown(eff[hot])
		watts -= pc.model.CoreW(eff[hot], busy[hot])
		eff[hot] = nf
		ceil[hot] = nf
		watts += pc.model.CoreW(eff[hot], busy[hot])
		pc.throttles++
	}
	// Commit: emit schedule steps only where the ceiling actually changed.
	for c := 0; c < n; c++ {
		//gemini:allow floatcmp -- ceilings are discrete ladder levels; the exact no-change check suppresses redundant schedule steps
		if ceil[c] != st.ceilings[c] {
			pc.schedules[c] = append(pc.schedules[c], CeilingStep{AtMs: t, Ceiling: ceil[c]})
			st.ceilings[c] = ceil[c]
		}
	}
	pc.seriesT = append(pc.seriesT, t)
	pc.seriesW = append(pc.seriesW, watts)
	pc.seriesThr = append(pc.seriesThr, pc.throttles-throttlesBefore)
}

// ClusterFloorW is the modeled cluster power of `cores` busy replicas at the
// ladder floor plus uncore — the lowest wattage throttling can reach. A cap
// below it is physically unenforceable and the invariant tests bound against
// it.
func ClusterFloorW(m *cpu.PowerModel, l *cpu.Ladder, cores int) float64 {
	return m.UncoreW + float64(cores)*m.CoreW(l.Min(), true)
}

// cappedPolicy wraps a per-core policy with a fixed ceiling schedule: it
// replays the coordinator's CeilingSteps through reserved timers and clamps
// the core's frequency to the ceiling after every policy decision. The
// wrapper tracks the frequency it clamped away from so a later relaxation
// restores the policy's own choice (a hardware ceiling limits the governor's
// setpoint, it does not rewrite it). Planned future changes the inner policy
// scheduled are clamped at the next callback or boundary — control-interval
// granularity, same as the coordinator's own model.
type cappedPolicy struct {
	inner Policy
	steps []CeilingStep
	i     int
	// ceiling is the currently-active ceiling; clampedFrom, when positive,
	// is the frequency the wrapper forced down from (and the inner policy
	// has not overridden since).
	ceiling     cpu.Freq
	clampedFrom cpu.Freq
}

// wrapCapped returns pol unchanged when the schedule is empty (the cap never
// bound for this core), so uncapped runs carry zero wrapper overhead.
func wrapCapped(pol Policy, steps []CeilingStep) Policy {
	if len(steps) == 0 {
		return pol
	}
	return &cappedPolicy{inner: pol, steps: steps}
}

func (p *cappedPolicy) Name() string { return p.inner.Name() }

func (p *cappedPolicy) Init(s *Sim) {
	p.ceiling = s.Ladder().Max()
	p.inner.Init(s)
	p.afterInner(s)
	p.arm(s)
}

func (p *cappedPolicy) OnArrival(s *Sim, r *Request) {
	p.inner.OnArrival(s, r)
	p.afterInner(s)
}

func (p *cappedPolicy) OnStart(s *Sim, r *Request) {
	p.inner.OnStart(s, r)
	p.afterInner(s)
}

func (p *cappedPolicy) OnDeparture(s *Sim, r *Request) {
	p.inner.OnDeparture(s, r)
	p.afterInner(s)
}

func (p *cappedPolicy) OnTimer(s *Sim, tag int64) {
	if tag == CapTimerTag {
		p.applySteps(s)
		p.arm(s)
		return
	}
	p.inner.OnTimer(s, tag)
	p.afterInner(s)
}

// arm schedules the next pending ceiling step.
func (p *cappedPolicy) arm(s *Sim) {
	if p.i < len(p.steps) {
		s.setTimer(p.steps[p.i].AtMs, CapTimerTag)
	}
}

// applySteps applies every step due at or before now, then re-clamps or
// restores the frequency against the new ceiling.
func (p *cappedPolicy) applySteps(s *Sim) {
	now := s.Now()
	for p.i < len(p.steps) && p.steps[p.i].AtMs <= now {
		p.ceiling = p.steps[p.i].Ceiling
		p.i++
	}
	switch {
	case s.Freq() > p.ceiling:
		if p.clampedFrom <= 0 {
			p.clampedFrom = s.Freq()
		}
		s.SetFreq(p.ceiling)
	case p.clampedFrom > 0 && p.ceiling > s.Freq():
		restore := p.clampedFrom
		if restore > p.ceiling {
			restore = p.ceiling // partially restored; the wrapper still owes the rest
		} else {
			p.clampedFrom = 0 // fully restored: the policy's choice is back
		}
		s.SetFreq(restore)
	}
}

// afterInner clamps whatever frequency the inner policy just chose. The
// policy's own choice supersedes any earlier clamp bookkeeping.
func (p *cappedPolicy) afterInner(s *Sim) {
	p.clampedFrom = 0
	if s.Freq() > p.ceiling {
		p.clampedFrom = s.Freq()
		s.SetFreq(p.ceiling)
	}
}
