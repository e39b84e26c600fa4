package policy

import (
	"gemini/internal/cpu"
	"gemini/internal/sim"
)

// The Linux-like settings both governors use: utilization is the share of
// busy probes, one every sampleMs, over each periodMs.
const (
	periodMs      = 10   // sampling period (Linux default order: 10 ms)
	sampleMs      = 1    // busy-probe spacing within a period
	upThreshold   = 0.80 // utilization at or above which the core speeds up
	downThreshold = 0.20 // conservative: utilization at or below which it steps down
)

// Governor mimics the classic Linux cpufreq governors `ondemand`
// (NewOnDemand) and `conservative` (NewConservative). Both probe whether the
// core is busy every sampleMs and apply their rule once per periodMs. They
// are deadline-blind — useful non-latency-aware reference points next to the
// paper's policies.
type Governor struct {
	stepwise bool // conservative's rule, else ondemand's

	busy, samples int
}

// NewOnDemand returns the `ondemand` governor: at or above upThreshold the
// core jumps to the maximum frequency, otherwise the frequency is set
// proportionally so the sampled utilization would sit at the threshold.
func NewOnDemand() *Governor { return &Governor{} }

// NewConservative returns the `conservative` governor: like ondemand but
// stepping one ladder level at a time, up at or above upThreshold and down
// at or below downThreshold.
func NewConservative() *Governor { return &Governor{stepwise: true} }

// Name implements sim.Policy.
func (p *Governor) Name() string {
	if p.stepwise {
		return "conservative"
	}
	return "ondemand"
}

// Init implements sim.Policy.
func (p *Governor) Init(s *sim.Sim) {
	s.SetFreq(s.Ladder().Min())
	s.SetTimer(sampleMs, 0)
}

// OnArrival implements sim.Policy.
func (p *Governor) OnArrival(*sim.Sim, *sim.Request) {}

// OnStart implements sim.Policy.
func (p *Governor) OnStart(*sim.Sim, *sim.Request) {}

// OnDeparture implements sim.Policy.
func (p *Governor) OnDeparture(*sim.Sim, *sim.Request) {}

// OnTimer implements sim.Policy: probe business, and on period boundaries
// apply the governor's rule.
func (p *Governor) OnTimer(s *sim.Sim, _ int64) {
	p.samples++
	if len(s.Queue()) > 0 {
		p.busy++
	}
	if float64(p.samples)*sampleMs >= periodMs {
		util := float64(p.busy) / float64(p.samples)
		p.busy, p.samples = 0, 0
		if p.stepwise {
			switch {
			case util >= upThreshold:
				s.SetFreq(s.Ladder().StepUp(s.Freq()))
			case util <= downThreshold:
				s.SetFreq(s.Ladder().StepDown(s.Freq()))
			}
		} else if util >= upThreshold {
			s.SetFreq(cpu.FDefault)
		} else {
			// Scale so that the observed busy work would fill upThreshold
			// of the period at the new frequency.
			target := cpu.Freq(float64(s.Freq()) * util / upThreshold)
			s.SetFreq(s.Ladder().ClampUp(target))
		}
	}
	s.SetTimer(s.Now()+sampleMs, 0)
}
