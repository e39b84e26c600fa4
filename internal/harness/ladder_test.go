package harness

import (
	"math/rand"
	"testing"

	"gemini/internal/cpu"
	"gemini/internal/sim"
	"gemini/internal/trace"
)

// offLadder returns the executed segments whose frequency is not a level of
// the ladder.
func offLadder(l *cpu.Ladder, segs []sim.FreqSegment) []sim.FreqSegment {
	var out []sim.FreqSegment
	for _, seg := range segs {
		if !l.Contains(seg.Freq) {
			out = append(out, seg)
		}
	}
	return out
}

// TestExecutedFrequenciesOnLadder holds the paper's hardware model (§V: the
// ISNs run only the discrete DVFS states set through scaling_setspeed) on
// what actually ran: every policy the platform builds, on a loaded and an
// overloaded stream, and the capped 8×3 power-aware 40 W cell record their
// executed frequency trace, and every segment must be a ladder level —
// literal, computed or clamped alike.
//
// PACE-oracle is the one exception: it is the clairvoyant bound with ideal
// hardware and picks continuous frequencies on purpose. The test requires it
// to leave the ladder, so the exception stays earned.
func TestExecutedFrequenciesOnLadder(t *testing.T) {
	p := plat(t)
	// Mean gaps of 25 ms and 8 ms: a loaded stream with idle gaps, queues,
	// groups and boosts, and an overloaded one that pins the top levels.
	for _, gapMs := range []float64{25, 8} {
		rng := rand.New(rand.NewSource(17))
		arr := make([]float64, 0, 400)
		at := 0.0
		for range 400 {
			at += rng.ExpFloat64() * gapMs
			arr = append(arr, at)
		}
		for _, name := range AllPolicyNames {
			cfg := p.SimConfig()
			cfg.RecordFreqTrace = true
			res := sim.Run(cfg, p.Workload(arr, at+100, 5), p.MustPolicy(name))
			if len(res.FreqTrace) == 0 {
				t.Fatalf("%s: no frequency trace recorded", name)
			}
			off := offLadder(cfg.Ladder, res.FreqTrace)
			if name == "PACE-oracle" {
				if len(off) == 0 {
					t.Errorf("gap %v ms: PACE-oracle ran only ladder levels: drop its exception from this test", gapMs)
				}
				continue
			}
			if len(off) > 0 {
				t.Errorf("gap %v ms, %s: %d of %d segments off the ladder %v, first %+v",
					gapMs, name, len(off), len(res.FreqTrace), cfg.Ladder, off[0])
			}
		}
	}

	// The capped cell: the cap coordinator's ceilings and the power-aware
	// router's plans must keep every core on the ladder too.
	cfg := p.SimConfig()
	cfg.RecordFreqTrace = true
	const cellMs = 5000 // long enough for the cap to bind on the small platform
	tr := trace.GenFixedRPS(60*p.Opt.ShardFraction*3, cellMs, 1)
	tc := sim.TopologyConfig{
		Sim:       cfg,
		Topology:  sim.Topology{Shards: 8, ReplicasPerShard: 3},
		Router:    sim.RouterPowerAware{},
		Seed:      1,
		PowerCapW: 40,
	}
	res := sim.RunTopologyWorkers(tc, p.Workload(tr.Arrivals, cellMs, 2), 2, func(int) sim.Policy {
		return p.MustPolicy("Gemini")
	})
	if res.CapThrottles == 0 {
		t.Fatal("the 40 W cap never throttled: the cell no longer exercises capped ceilings")
	}
	for c, r := range res.PerCore {
		if off := offLadder(cfg.Ladder, r.FreqTrace); len(off) > 0 {
			t.Errorf("capped cell core %d: %d of %d segments off the ladder, first %+v",
				c, len(off), len(r.FreqTrace), off[0])
		}
	}
}
