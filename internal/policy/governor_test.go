package policy

import (
	"math/rand"
	"testing"

	"gemini/internal/cpu"
	"gemini/internal/sim"
)

func governorWorkload(n int, gapMs float64, seed int64) *sim.Workload {
	rng := rand.New(rand.NewSource(seed))
	wl := &sim.Workload{BudgetMs: 40}
	at := 0.0
	for i := 0; i < n; i++ {
		at += rng.ExpFloat64() * gapMs
		ms := 2 + rng.Float64()*10
		w := cpu.Work(ms * float64(cpu.FDefault))
		wl.Requests = append(wl.Requests, &sim.Request{
			ID: i, BaseWork: w, WorkTotal: w, ArrivalMs: at, DeadlineMs: at + 40,
		})
	}
	wl.DurationMs = at + 200
	return wl
}

func TestOnDemandCompletesAll(t *testing.T) {
	wl := governorWorkload(200, 25, 1)
	res := sim.Run(sim.DefaultConfig(), wl, NewOnDemand())
	if res.Completed != 200 {
		t.Fatalf("completed = %d", res.Completed)
	}
	b := sim.Run(sim.DefaultConfig(), governorWorkload(200, 25, 1), Baseline{})
	if res.EnergyMJ >= b.EnergyMJ {
		t.Errorf("ondemand energy %v >= baseline %v", res.EnergyMJ, b.EnergyMJ)
	}
}

func TestOnDemandRampsUpUnderLoad(t *testing.T) {
	// Saturating load: utilization ~1, the governor must reach max quickly
	// and stay there, keeping the queue from diverging unboundedly.
	wl := governorWorkload(400, 6, 2)
	res := sim.Run(sim.DefaultConfig(), wl, NewOnDemand())
	if res.Completed != 400 {
		t.Fatalf("completed = %d", res.Completed)
	}
	// At near-saturation ondemand's mean latency must be within a small
	// factor of the baseline's (it converges to max frequency).
	b := sim.Run(sim.DefaultConfig(), governorWorkload(400, 6, 2), Baseline{})
	if res.MeanLatencyMs() > 5*b.MeanLatencyMs()+20 {
		t.Errorf("ondemand mean %v far above baseline %v — governor failed to ramp",
			res.MeanLatencyMs(), b.MeanLatencyMs())
	}
}

func TestConservativeCompletesAndSaves(t *testing.T) {
	wl := governorWorkload(200, 25, 3)
	res := sim.Run(sim.DefaultConfig(), wl, NewConservative())
	if res.Completed != 200 {
		t.Fatalf("completed = %d", res.Completed)
	}
	b := sim.Run(sim.DefaultConfig(), governorWorkload(200, 25, 3), Baseline{})
	if res.EnergyMJ >= b.EnergyMJ {
		t.Errorf("conservative energy %v >= baseline %v", res.EnergyMJ, b.EnergyMJ)
	}
}

// Governors are deadline-blind: under the same load where Gemini holds the
// budget, ondemand violates more — the motivation for latency-aware DVFS.
func TestGovernorsAreDeadlineBlind(t *testing.T) {
	mk := func() *sim.Workload {
		rng := rand.New(rand.NewSource(4))
		wl := &sim.Workload{BudgetMs: 40}
		at := 0.0
		for i := 0; i < 300; i++ {
			at += rng.ExpFloat64() * 18
			ms := 4 + rng.Float64()*18
			w := cpu.Work(ms * float64(cpu.FDefault))
			req := &sim.Request{
				ID: i, Entry: &sim.PreparedQuery{}, BaseWork: w, WorkTotal: w, ArrivalMs: at, DeadlineMs: at + 40,
			}
			req.Entry.Features[0] = ms
			req.Entry.Features[1] = 0.5
			wl.Requests = append(wl.Requests, req)
		}
		wl.DurationMs = at + 200
		return wl
	}
	od := sim.Run(sim.DefaultConfig(), mk(), NewOnDemand())
	gm := sim.Run(sim.DefaultConfig(), mk(), newTestGemini())
	if gm.ViolationRate() >= od.ViolationRate() && od.ViolationRate() > 0 {
		t.Errorf("Gemini violation rate %v not below ondemand %v",
			gm.ViolationRate(), od.ViolationRate())
	}
}
