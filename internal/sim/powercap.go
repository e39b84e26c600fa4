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
// simulates, so cores stay share-nothing and sharded execution stays
// byte-identical to serial. The engine replays each core's schedule: a
// ceiling step is an engine event read by a cursor, like an arrival, and the
// core runs at min(policy setpoint, ceiling) in force, planned changes
// included (Sim.SetFreq). The policy never sees the ceiling act.

// DefaultCapIntervalMs is the coordinator's control interval — 100 ms, the
// order of Pegasus's power-sampling epoch and long against Tdvfs.
const DefaultCapIntervalMs = 100.0

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
	watts      cpu.Watts // model's CoreW at every ladder level
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

// newPowerCapCoordinator steps st's ceilings, which it builds at the ladder
// top, and plans on st's ladder and law.
func newPowerCapCoordinator(capW, intervalMs float64, model *cpu.PowerModel, st *RouteState) *PowerCapCoordinator {
	if intervalMs <= 0 {
		intervalMs = DefaultCapIntervalMs
	}
	n := len(st.vFinish)
	st.ceilings = make([]cpu.Freq, n)
	for c := range st.ceilings {
		st.ceilings[c] = st.ladder.Max()
	}
	st.law.build(st.ladder, st.budgetMs)
	return &PowerCapCoordinator{
		capW:       capW,
		intervalMs: intervalMs,
		model:      model,
		watts:      model.Watts(st.ladder),
		ladder:     st.ladder,
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

// Schedule returns the core's ceiling-change schedule in time order.
func (pc *PowerCapCoordinator) Schedule(core int) []CeilingStep { return pc.schedules[core] }

// adjust recomputes every replica's ceiling at boundary t. Ceilings restart
// from the ladder top (statelessness), then the replica with the highest
// modeled planned frequency is stepped down one ladder level at a time until
// the modeled cluster power fits under the cap or every loaded replica sits
// at the floor.
func (pc *PowerCapCoordinator) adjust(t float64) {
	st := pc.st
	n := len(st.ceilings)
	top, floor := pc.ladder.Max(), pc.ladder.Min()
	throttlesBefore := pc.throttles

	// Uncapped plan: what each replica would run with no ceiling.
	eff, busy, ceil := pc.eff, pc.busy, pc.ceil
	watts := pc.model.UncoreW
	for c := 0; c < n; c++ {
		eff[c] = st.law.freq(st.vFinish[c]-t, top)
		busy[c] = st.vFinish[c] > t
		watts += pc.watts.CoreW(eff[c], busy[c])
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
		watts -= pc.watts.CoreW(eff[hot], busy[hot])
		eff[hot] = nf
		ceil[hot] = nf
		watts += pc.watts.CoreW(eff[hot], busy[hot])
		pc.throttles++
	}
	// Commit: emit schedule steps only where the ceiling actually changed.
	for c := 0; c < n; c++ {
		if ceil[c] != st.ceilings[c] {
			pc.schedules[c] = append(pc.schedules[c], CeilingStep{AtMs: t, Ceiling: ceil[c]})
			st.ceilings[c] = ceil[c]
		}
	}
	pc.seriesT = append(pc.seriesT, t)
	pc.seriesW = append(pc.seriesW, watts)
	pc.seriesThr = append(pc.seriesThr, pc.throttles-throttlesBefore)
}
