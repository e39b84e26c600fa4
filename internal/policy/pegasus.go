package policy

import (
	"gemini/internal/cpu"
	"gemini/internal/sim"
)

// Pegasus is the coarse-grained epoch-based feedback controller of Lo et al.
// (paper ref [14], described in §II-B and §VI-A): it measures request
// latencies over an epoch and steps the whole core's frequency — to maximum
// on a deadline violation, down when the epoch's worst latency leaves more
// than 35% headroom (the paper's 65% threshold), up when headroom gets thin.
// The paper scales the epoch to 125 ms for the 1000 s runs.
type Pegasus struct {
	// EpochMs is the controller period (125 ms in the paper's scaled setup).
	EpochMs float64

	// worst is the epoch's largest completed latency so far, 0 for none.
	worst float64
}

// NewPegasus returns the controller with the paper's scaled epoch.
func NewPegasus() *Pegasus { return &Pegasus{EpochMs: 125} }

// Name implements sim.Policy.
func (p *Pegasus) Name() string { return "Pegasus" }

// Init implements sim.Policy.
func (p *Pegasus) Init(s *sim.Sim) {
	s.SetFreq(cpu.FDefault)
	s.SetTimer(p.EpochMs, 0)
}

// OnArrival implements sim.Policy.
func (p *Pegasus) OnArrival(*sim.Sim, *sim.Request) {}

// OnStart implements sim.Policy.
func (p *Pegasus) OnStart(*sim.Sim, *sim.Request) {}

// OnDeparture implements sim.Policy: fold the completed latency into the
// epoch's feedback signal, its worst latency.
func (p *Pegasus) OnDeparture(s *sim.Sim, r *sim.Request) {
	if l := r.LatencyMs(); l > p.worst {
		p.worst = l
	}
}

// OnTimer implements sim.Policy: the epoch controller.
func (p *Pegasus) OnTimer(s *sim.Sim, _ int64) {
	budget := s.BudgetMs()
	worst := p.worst
	p.worst = 0

	ladder := s.Ladder()
	switch {
	case worst > budget:
		// Violation: jump straight to maximum.
		s.SetFreq(cpu.FDefault)
	case worst > 0.65*budget:
		// Thin headroom: climb back toward safety.
		s.SetFreq(ladder.StepUp(s.Freq()))
	case worst > 0 && worst < 0.65*budget:
		// "When the measured latency is smaller than 65% of the given time
		// budget, the CPU frequency is reduced" (§II-B).
		s.SetFreq(ladder.StepDown(s.Freq()))
	case worst == 0:
		// An epoch without completions carries no latency signal: hold (the
		// paper's unsharded ISNs never see an empty epoch, so the controller
		// defines no action for one).
	}
	// Pegasus decides per epoch, not per request; the in-flight head (if
	// any) inherits the epoch's frequency, which is what its decision record
	// should show.
	if q := s.Queue(); len(q) > 0 {
		s.TracePlan(q[0], s.Freq(), 0, 0, -1)
	}
	s.SetTimer(s.Now()+p.EpochMs, 0)
}
