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
	floorW := ClusterFloorW(m, l, topo.Cores())
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
	floorW := ClusterFloorW(m, l, topo.Cores())

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
	floorW := ClusterFloorW(m, l, topo.Cores())
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

// TestCapTimerTagReserved pins the reserved timer-tag range where it is
// enforced: the engine's own tags are negative and distinct, and Sim.SetTimer
// refuses a negative tag from a policy on both engines, so a policy can
// neither collide with the cap wrapper's timer nor have one swallowed by the
// sampler. The wrapper and the sampler arm theirs through setTimer.
func TestCapTimerTagReserved(t *testing.T) {
	if CapTimerTag >= 0 || SampleTimerTag >= 0 || CapTimerTag == SampleTimerTag {
		t.Fatalf("CapTimerTag = %d, SampleTimerTag = %d: reserved tags must be negative and distinct",
			CapTimerTag, SampleTimerTag)
	}
	for _, tag := range []int64{SampleTimerTag, CapTimerTag} {
		for _, linear := range []bool{false, true} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("linear=%v: SetTimer accepted reserved tag %d from a policy", linear, tag)
					}
				}()
				cfg := DefaultConfig()
				cfg.linear = linear
				Run(cfg, mkWorkload(50, 100, [2]float64{0, 13.5}),
					&hookPolicy{init: func(s *Sim) { s.SetTimer(10, tag) }})
			}()
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
	floorW := ClusterFloorW(m, l, topo.Cores())
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
		floorW := ClusterFloorW(m, l, topo.Cores())
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
