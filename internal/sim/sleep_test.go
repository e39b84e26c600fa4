package sim

import (
	"math"
	"testing"

	"gemini/internal/cpu"
)

// sleepPolicy parks the core in a C-state whenever the queue drains.
type sleepPolicy struct {
	powerW, wakeMs float64
}

func (p *sleepPolicy) Name() string { return "sleep" }
func (p *sleepPolicy) Init(s *Sim) {
	s.SetFreq(cpu.FDefault)
	s.Sleep(p.powerW, p.wakeMs)
}
func (p *sleepPolicy) OnArrival(*Sim, *Request) {}
func (p *sleepPolicy) OnStart(*Sim, *Request)   {}
func (p *sleepPolicy) OnDeparture(s *Sim, r *Request) {
	if len(s.Queue()) == 0 {
		s.Sleep(p.powerW, p.wakeMs)
	}
}
func (p *sleepPolicy) OnTimer(*Sim, int64) {}

func TestSleepReducesIdleEnergy(t *testing.T) {
	mk := func() *Workload { return mkWorkload(50, 1000, [2]float64{0, 27}) }
	awake := Run(DefaultConfig(), mk(), &FixedPolicy{F: cpu.FDefault})
	asleep := Run(DefaultConfig(), mk(), &sleepPolicy{powerW: 0.3, wakeMs: 0.3})
	if asleep.EnergyMJ >= awake.EnergyMJ {
		t.Fatalf("sleep energy %v >= awake %v", asleep.EnergyMJ, awake.EnergyMJ)
	}
	// Idle portion (990 ms) must be billed at the C-state power.
	cfg := DefaultConfig()
	busy := cfg.Power.CoreW(cpu.FDefault, true) * (27/2.7 + 0.3) // service + wake stall billed busy? wake stall happens while queue non-empty
	idleLow := 0.3 * 980.0
	if asleep.EnergyMJ > busy+idleLow+50 {
		t.Errorf("sleep energy %v implausibly high", asleep.EnergyMJ)
	}
}

func TestSleepWakeLatencyCharged(t *testing.T) {
	wl := mkWorkload(50, 200, [2]float64{100, 27})
	res := Run(DefaultConfig(), wl, &sleepPolicy{powerW: 0.3, wakeMs: 0.5})
	// Latency = wake stall + service.
	want := 0.5 + 10.0
	if math.Abs(res.Latencies[0]-want) > 1e-9 {
		t.Errorf("latency = %v, want %v", res.Latencies[0], want)
	}
}

func TestSleepIgnoredWhileBusy(t *testing.T) {
	wl := mkWorkload(50, 200, [2]float64{0, 27}, [2]float64{1, 13.5})
	pol := &hookPolicy{
		onArrival: func(s *Sim, r *Request) {
			s.Sleep(0.1, 10) // queue non-empty: must be a no-op
		},
	}
	res := Run(DefaultConfig(), wl, pol)
	// No wake stall anywhere: r0 latency exactly 10 ms.
	if math.Abs(res.Requests[0].LatencyMs()-10) > 1e-9 {
		t.Errorf("r0 latency = %v (sleep applied while busy?)", res.Requests[0].LatencyMs())
	}
	if res.Completed != 2 {
		t.Errorf("completed = %d", res.Completed)
	}
}

func TestSleepClearedAfterWake(t *testing.T) {
	// Two arrivals: the first wakes the core; idle power between the two
	// bursts (policy never re-sleeps) must be the normal C0 idle power.
	wl := mkWorkload(50, 400, [2]float64{0, 27}, [2]float64{300, 27})
	pol := &sleepPolicy{powerW: 0.1, wakeMs: 0.2}
	// Override: only sleep at init, not after departures.
	init := &hookPolicy{
		init: func(s *Sim) {
			s.SetFreq(cpu.FDefault)
			s.Sleep(0.1, 0.2)
		},
	}
	res := Run(DefaultConfig(), wl, init)
	_ = pol
	cfg := DefaultConfig()
	idleC0 := cfg.Power.CoreW(cpu.FDefault, false)
	// Energy must include ~280 ms of C0 idle (between the bursts) — far
	// above what staying in the C-state would cost.
	if res.EnergyMJ < idleC0*200 {
		t.Errorf("energy %v too low: sleep state not cleared on wake", res.EnergyMJ)
	}
	// Second request pays no wake latency (already awake).
	if math.Abs(res.Requests[1].LatencyMs()-10) > 1e-9 {
		t.Errorf("r1 latency = %v, want 10", res.Requests[1].LatencyMs())
	}
}
