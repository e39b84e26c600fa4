package sim

import (
	"testing"

	"gemini/internal/cpu"
)

// capBoundOK is the coordinator invariant: post-adjustment modeled cluster
// power at a control boundary is under the cap, unless the cap is below the
// all-at-floor power (the physical limit of frequency throttling), in which
// case it is at most that floor.
func capBoundOK(w, capW, floorW float64) bool {
	const eps = 1e-9
	return w <= capW+eps || w <= floorW+eps
}

// clusterFloorW is the modeled cluster power of `cores` busy replicas at the
// ladder floor plus uncore — the lowest wattage throttling can reach. A cap
// below it is physically unenforceable and the invariant tests bound against
// it.
func clusterFloorW(m *cpu.PowerModel, l *cpu.Ladder, cores int) float64 {
	return m.UncoreW + float64(cores)*m.CoreW(l.Min(), true)
}

func runCapped(seed int64, topo Topology, capW, intervalMs float64, router Router) *TopologyResult {
	wl := clusterWorkload(250, 2, 6, seed)
	tc := TopologyConfig{
		Sim:           DefaultConfig(),
		Topology:      topo,
		Router:        router,
		Seed:          seed,
		PowerCapW:     capW,
		CapIntervalMs: intervalMs,
	}
	return RunTopologyWorkers(tc, wl, 1, func(int) Policy { return &FixedPolicy{F: cpu.FDefault} })
}

// TestPowerCapInvariant sweeps caps from below the floor to above the
// uncapped peak: at every control boundary the modeled cluster power must be
// under the cap — i.e. an overshoot between boundaries lasts at most one
// control interval — or pinned at the all-floor power when the cap is
// unsatisfiable.
func TestPowerCapInvariant(t *testing.T) {
	m := cpu.DefaultPowerModel()
	l := cpu.DefaultLadder()
	topo := Topology{Shards: 3, ReplicasPerShard: 2}
	floorW := clusterFloorW(m, l, topo.Cores())
	maxW := m.UncoreW + float64(topo.Cores())*m.CoreW(l.Max(), true)

	for _, capW := range []float64{floorW - 5, floorW + 1, (floorW + maxW) / 2, maxW - 1, maxW + 10} {
		for seed := int64(1); seed <= 4; seed++ {
			tr := runCapped(seed, topo, capW, 50, RouterLeastLoaded{})
			if len(tr.ModeledPowerW) == 0 {
				t.Fatalf("cap=%v seed=%d: no control boundaries recorded", capW, seed)
			}
			for i, w := range tr.ModeledPowerW {
				if !capBoundOK(w, capW, floorW) {
					t.Fatalf("cap=%v seed=%d: boundary %d modeled %v W above cap and floor %v W",
						capW, seed, i, w, floorW)
				}
			}
			if tr.PeakModeledPowerW > 0 && !capBoundOK(tr.PeakModeledPowerW, capW, floorW) {
				t.Fatalf("cap=%v seed=%d: peak %v W escapes bound", capW, seed, tr.PeakModeledPowerW)
			}
		}
	}
}

// TestPowerCapUnsatisfiableSaturatesAtFloor pins the floor-escape behavior: a
// cap below the all-floor power throttles every replica to the ladder floor
// and the run still completes (the coordinator must not spin).
func TestPowerCapUnsatisfiableSaturatesAtFloor(t *testing.T) {
	m := cpu.DefaultPowerModel()
	l := cpu.DefaultLadder()
	topo := Topology{Shards: 2, ReplicasPerShard: 2}
	floorW := clusterFloorW(m, l, topo.Cores())

	tr := runCapped(3, topo, floorW-3, 50, RouterRoundRobin{})
	if tr.Completed+tr.Dropped != tr.Queries {
		t.Fatalf("run did not complete: %+v", tr)
	}
	for i, w := range tr.ModeledPowerW {
		if w > floorW+1e-9 {
			t.Fatalf("boundary %d: %v W above the all-floor power %v W", i, w, floorW)
		}
	}
	if tr.CapThrottles == 0 {
		t.Fatal("unsatisfiable cap applied no throttles")
	}
}

// TestPowerCapMonotonicity is the capacity-planning sanity law: relaxing the
// cap can only help. Under a cap-blind router (round-robin keeps routing
// identical across caps) and a fixed-frequency policy, a looser cap yields
// pointwise higher frequency ceilings (the greedy throttle sequence of a
// looser cap is a prefix of a tighter cap's), so every query latency — and
// hence p99 — is non-increasing in the cap, and so is the throttle count.
func TestPowerCapMonotonicity(t *testing.T) {
	m := cpu.DefaultPowerModel()
	l := cpu.DefaultLadder()
	topo := Topology{Shards: 3, ReplicasPerShard: 2}
	floorW := clusterFloorW(m, l, topo.Cores())
	maxW := m.UncoreW + float64(topo.Cores())*m.CoreW(l.Max(), true)

	caps := []float64{
		floorW + 0.1*(maxW-floorW),
		floorW + 0.35*(maxW-floorW),
		floorW + 0.6*(maxW-floorW),
		floorW + 0.85*(maxW-floorW),
		maxW + 50, // effectively uncapped
	}
	for seed := int64(1); seed <= 3; seed++ {
		var prev *TopologyResult
		var prevCap float64
		for _, capW := range caps {
			tr := runCapped(seed, topo, capW, 50, RouterRoundRobin{})
			if prev != nil {
				const eps = 1e-9
				if got, was := tr.TailLatencyMs(99), prev.TailLatencyMs(99); got > was+eps {
					t.Errorf("seed=%d: p99 worsened relaxing cap %v→%v W: %v → %v ms",
						seed, prevCap, capW, was, got)
				}
				if tr.CapThrottles > prev.CapThrottles {
					t.Errorf("seed=%d: throttles rose relaxing cap %v→%v W: %d → %d",
						seed, prevCap, capW, prev.CapThrottles, tr.CapThrottles)
				}
				if len(tr.QueryLatencies) != len(prev.QueryLatencies) {
					t.Fatalf("seed=%d: completion counts changed across caps", seed)
				}
				// Pointwise dominance of the sorted latency distributions —
				// strictly stronger than any single percentile.
				for i := range tr.QueryLatencies {
					if tr.QueryLatencies[i] > prev.QueryLatencies[i]+eps {
						t.Fatalf("seed=%d: sorted latency %d worsened relaxing cap %v→%v W",
							seed, i, prevCap, capW)
					}
				}
			}
			prev, prevCap = tr, capW
		}
		// The loosest cap must genuinely not bind.
		if prev.CapThrottles != 0 {
			t.Errorf("seed=%d: cap above modeled max still throttled %d times", seed, prev.CapThrottles)
		}
	}
}

// TestCappedTighterCapLowersEnergy ties the cap to the energy ledger: a
// binding cap must not increase modeled energy relative to the uncapped run
// (the whole point of throttling), on identical routing.
func TestCappedTighterCapLowersEnergy(t *testing.T) {
	m := cpu.DefaultPowerModel()
	l := cpu.DefaultLadder()
	topo := Topology{Shards: 3, ReplicasPerShard: 2}
	floorW := clusterFloorW(m, l, topo.Cores())
	maxW := m.UncoreW + float64(topo.Cores())*m.CoreW(l.Max(), true)

	tight := runCapped(2, topo, floorW+0.15*(maxW-floorW), 50, RouterRoundRobin{})
	loose := runCapped(2, topo, 0, 0, RouterRoundRobin{}) // uncapped
	if tight.CapThrottles == 0 {
		t.Fatal("tight cap never bound — test is vacuous")
	}
	if tight.EnergyMJ > loose.EnergyMJ+1e-9 {
		t.Errorf("capped run used more energy than uncapped: %v > %v mJ",
			tight.EnergyMJ, loose.EnergyMJ)
	}
}

// FuzzPowerCapInvariant drives arbitrary (seed, cap, interval, topology)
// points through the coordinator and asserts the one-interval bound plus
// serial/sharded equality of the capped run.
func FuzzPowerCapInvariant(f *testing.F) {
	f.Add(int64(1), uint8(120), uint8(2), uint8(2), uint8(50))
	f.Add(int64(7), uint8(40), uint8(3), uint8(2), uint8(100))
	f.Add(int64(42), uint8(200), uint8(1), uint8(4), uint8(25))
	f.Fuzz(func(t *testing.T, seed int64, capSel, shards, reps, interval uint8) {
		topo := Topology{Shards: 1 + int(shards)%4, ReplicasPerShard: 1 + int(reps)%4}
		m := cpu.DefaultPowerModel()
		l := cpu.DefaultLadder()
		floorW := clusterFloorW(m, l, topo.Cores())
		maxW := m.UncoreW + float64(topo.Cores())*m.CoreW(l.Max(), true)
		// Map capSel onto [floorW-5, maxW+5]: covers unsatisfiable, binding,
		// and slack caps.
		capW := floorW - 5 + (maxW-floorW+10)*float64(capSel)/255
		if capW <= 0 {
			capW = 1
		}
		ivMs := 10 + float64(interval)

		tr := runCapped(seed, topo, capW, ivMs, RouterDeadlineAware{})
		for i, w := range tr.ModeledPowerW {
			if !capBoundOK(w, capW, floorW) {
				t.Fatalf("topo=%+v cap=%v iv=%v seed=%d: boundary %d modeled %v W escapes bound",
					topo, capW, ivMs, seed, i, w)
			}
		}
	})
}

// runUnderCeiling runs one core under a fixed ceiling schedule, as runCores
// runs each capped core of a topology.
func runUnderCeiling(wl *Workload, pol Policy, steps []CeilingStep) *Result {
	cfg := DefaultConfig()
	cfg.RecordFreqTrace = true
	return run(cfg, wl, nil, pol, nil, steps)
}

// overCeiling reports whether seg ran above a ceiling steps held in force at
// some instant of it: the one in force at its start, or one stepped to inside
// it.
func overCeiling(seg FreqSegment, steps []CeilingStep, top cpu.Freq) bool {
	ceiling := ceilingAt(steps, top, seg.StartMs)
	for _, st := range steps {
		if st.AtMs > seg.StartMs && st.AtMs < seg.EndMs {
			ceiling = min(ceiling, st.Ceiling)
		}
	}
	return seg.Freq > ceiling
}

// ceilingAt is the ceiling steps hold in force at t: the last step at or
// before t, the ladder top before the first.
func ceilingAt(steps []CeilingStep, top cpu.Freq, t float64) cpu.Freq {
	for _, st := range steps {
		if st.AtMs > t {
			break
		}
		top = st.Ceiling
	}
	return top
}

// TestCeilingBindsExecutedFrequency holds the engine's ceiling against what
// the core actually ran (its FreqTrace), not against what the policy asked
// for: a planned boost obeys the ceiling in force when it fires, a setpoint
// above the ceiling costs no transition, and a rising ceiling returns the
// core to the policy's setpoint.
func TestCeilingBindsExecutedFrequency(t *testing.T) {
	l := cpu.DefaultLadder()
	// Every arrival drops to the floor and plans a boost to the top 3 ms
	// later; from t = 1 ms the ceiling is 2.4 GHz.
	var reqs [][2]float64
	for i := 0; i < 40; i++ {
		reqs = append(reqs, [2]float64{float64(5 * i), 10 + float64(i%7)})
	}
	boost := &hookPolicy{onArrival: func(s *Sim, r *Request) {
		s.SetFreq(l.Min())
		s.PlanFreqChange(s.Now()+3, l.Max())
	}}
	steps := []CeilingStep{{AtMs: 1, Ceiling: 2.4}}
	res := runUnderCeiling(mkWorkload(40, 250, reqs...), boost, steps)
	over, atCeiling := 0, 0
	for _, seg := range res.FreqTrace {
		if seg.StartMs >= 1 && seg.Freq > 2.4 {
			over++
		}
		if seg.Freq == 2.4 {
			atCeiling++
		}
	}
	if over > 0 || atCeiling == 0 {
		t.Errorf("%d of %d segments from 1 ms on ran above the 2.4 GHz ceiling, %d at it",
			over, len(res.FreqTrace), atCeiling)
	}

	// The policy holds the top throughout; the ceiling dips to 2.4 GHz for
	// [1, 5) ms. A setpoint renewed under the ceiling (2 ms) is free, and a
	// callback that sets nothing (3 ms) must not make the core forget it.
	hold := &hookPolicy{
		init: func(s *Sim) { s.SetFreq(l.Max()) },
		onArrival: func(s *Sim, r *Request) {
			if r.ID == 1 {
				s.SetFreq(l.Max())
			}
		},
	}
	steps = []CeilingStep{{AtMs: 1, Ceiling: 2.4}, {AtMs: 5, Ceiling: l.Max()}}
	res = runUnderCeiling(mkWorkload(40, 60, [2]float64{0, 54}, [2]float64{2, 5}, [2]float64{3, 5}), hold, steps)
	if res.Transitions != 2 {
		t.Errorf("%d frequency transitions, want 2 (down at 1 ms, up at 5 ms)", res.Transitions)
	}
	for _, seg := range res.FreqTrace {
		if want := ceilingAt(steps, l.Max(), seg.StartMs); seg.Freq != want {
			t.Errorf("segment %+v runs %v GHz, want the %v GHz the ceiling allows the setpoint",
				seg, seg.Freq, want)
		}
	}
}

// TestCeilingStepsAllocFree pins the ceiling-step path: one core, the same
// arrivals, and a schedule that moves the ceiling n and then 2n times must
// allocate the same amount over a whole run, so a step costs nothing.
func TestCeilingStepsAllocFree(t *testing.T) {
	l := cpu.DefaultLadder()
	var reqs [][2]float64
	for i := 0; i < 40; i++ {
		reqs = append(reqs, [2]float64{float64(5 * i), 10 + float64(i%7)})
	}
	wl := mkWorkload(40, 250, reqs...)
	pol := &FixedPolicy{F: l.Max()}
	schedule := func(n int) []CeilingStep {
		steps := make([]CeilingStep, n)
		for i := range steps {
			steps[i] = CeilingStep{AtMs: 200 * float64(i+1) / float64(n+1), Ceiling: 2.4}
			if i%2 == 1 {
				steps[i].Ceiling = l.Max()
			}
		}
		return steps
	}
	cfg := DefaultConfig()
	allocs := func(steps []CeilingStep) float64 {
		return testing.AllocsPerRun(10, func() { run(cfg, wl, nil, pol, nil, steps) })
	}
	short, long := schedule(100), schedule(200)
	if a, b := allocs(short), allocs(long); a != b {
		t.Errorf("%v allocations under %d ceiling steps, %v under %d; want equal",
			a, len(short), b, len(long))
	}
}

// ceilingProbe wraps a cell core's policy and keeps the ceiling schedule the
// engine replays for that core.
type ceilingProbe struct {
	Policy
	steps []CeilingStep
}

func (p *ceilingProbe) Init(s *Sim) {
	p.steps = s.ceil
	p.Policy.Init(s)
}

// TestCappedCellRunsUnderItsCeilings checks every executed segment of the
// capped 8×3 tie-storm cell of TestObservedCellSinksGolden against the
// ceilings its core's schedule held in force.
func TestCappedCellRunsUnderItsCeilings(t *testing.T) {
	wl := clusterWorkload(600, 1, 6, 3)
	cfg := DefaultConfig()
	cfg.RecordFreqTrace = true
	topo := Topology{Shards: 8, ReplicasPerShard: 3}
	tc := TopologyConfig{
		Sim: cfg, Topology: topo, Router: RouterPowerAware{}, Seed: 3,
		PowerCapW: 1.1 * clusterFloorW(cfg.Power, cfg.Ladder, topo.Cores()),
	}
	probes := make([]*ceilingProbe, topo.Cores())
	res := RunTopologyWorkers(tc, wl, 2, func(c int) Policy {
		probes[c] = &ceilingProbe{Policy: mkPredictingStorm(c)}
		return probes[c]
	})
	if res.CapThrottles == 0 {
		t.Fatal("the cap never bound: the cell no longer exercises ceilings")
	}
	steps := 0
	for c, r := range res.PerCore {
		steps += len(probes[c].steps)
		over := 0
		for _, seg := range r.FreqTrace {
			if overCeiling(seg, probes[c].steps, cfg.Ladder.Max()) {
				over++
			}
		}
		if over > 0 {
			t.Errorf("core %d: %d of %d segments ran above the ceiling in force (%d steps)",
				c, over, len(r.FreqTrace), len(probes[c].steps))
		}
	}
	if steps == 0 {
		t.Error("no core was handed a ceiling schedule")
	}
}
