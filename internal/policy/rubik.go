package policy

import (
	"sort"

	"gemini/internal/cpu"
	"gemini/internal/sim"
)

// Rubik is the fine-grained analytical scheme of Kasture et al. (paper ref
// [18], described in §II-B and §VI-A): on every request arrival and
// departure it recomputes the lowest frequency such that every queued
// request still meets its deadline, estimating each request's compute demand
// from the tail (95th percentile) of the service-time distribution — the
// conservative estimator whose wasted headroom motivates Gemini's per-query
// prediction.
//
// The executing request's residual demand uses the *conditional* tail — the
// 95th percentile of the profiled service times that exceed the work already
// executed — as in Rubik's remaining-work distribution model: a request that
// has already run long reveals itself to be a tail request and its residual
// estimate grows. NewRubikFromSorted builds it from that profile.
type Rubik struct {
	// S95Ms is the 95th-percentile service time at the default frequency.
	S95Ms float64
	// IdleFreq is used when the queue drains (lowest ladder frequency).
	IdleFreq cpu.Freq
	// samples holds the sorted service-time distribution for the
	// conditional-tail residual estimates. It is only read, so instances may
	// share it.
	samples []float64
}

// armedFreq is the frequency Rubik starts at: able to serve one tail request
// arriving into an idle core within the budget.
func (p *Rubik) armedFreq(budgetMs float64) cpu.Freq {
	f := cpu.Freq(p.S95Ms * float64(cpu.FDefault) / budgetMs)
	return cpu.DefaultLadder().ClampUp(f)
}

// NewRubikFromSorted builds Rubik from profiled service times (ms at the
// default frequency), enabling the conditional remaining-work tail. s must be
// sorted ascending. It is not copied: Rubik only reads it, so one slice can
// back every instance, including instances running concurrently.
func NewRubikFromSorted(s []float64) *Rubik {
	s95 := 0.0
	if len(s) > 0 {
		s95 = s[int(0.95*float64(len(s)-1))]
	}
	return &Rubik{S95Ms: s95, IdleFreq: cpu.DefaultLadder().Min(), samples: s}
}

// condTail95 returns the 95th percentile of service times conditioned on
// exceeding elapsedMs of FDefault-equivalent execution.
func (p *Rubik) condTail95(elapsedMs float64) float64 {
	i := sort.SearchFloat64s(p.samples, elapsedMs)
	rest := p.samples[i:]
	if len(rest) == 0 {
		// Beyond every observed service time: extrapolate proportionally.
		return elapsedMs * 1.1
	}
	return rest[int(0.95*float64(len(rest)-1))]
}

// Name implements sim.Policy.
func (p *Rubik) Name() string { return "Rubik" }

// Init implements sim.Policy.
func (p *Rubik) Init(s *sim.Sim) { s.SetFreq(p.armedFreq(s.BudgetMs())) }

// OnArrival implements sim.Policy.
func (p *Rubik) OnArrival(s *sim.Sim, r *sim.Request) { p.replan(s) }

// OnStart implements sim.Policy.
func (p *Rubik) OnStart(*sim.Sim, *sim.Request) {}

// OnDeparture implements sim.Policy.
func (p *Rubik) OnDeparture(s *sim.Sim, r *sim.Request) { p.replan(s) }

// OnTimer implements sim.Policy.
func (p *Rubik) OnTimer(*sim.Sim, int64) {}

// replan selects the smallest frequency that clears every queued request's
// estimated cumulative work before its deadline.
func (p *Rubik) replan(s *sim.Sim) {
	q := s.Queue()
	if len(q) == 0 {
		// Rubik reconfigures only on arrival and departure events; with an
		// empty queue its model has nothing to solve, so the core keeps the
		// last computed frequency until the next arrival (the behavior the
		// paper measured at 16.8% saving — Rubik does not manage idle).
		return
	}
	fdef := float64(cpu.FDefault)
	now := s.Now()
	est := p.S95Ms * fdef // per-request work estimate at the tail

	// Head residual: conditional tail of its remaining work given observed
	// progress.
	elapsed := float64(q[0].WorkDone) / fdef
	cum := p.condTail95(elapsed)*fdef - float64(q[0].WorkDone)
	if cum < 0 {
		cum = 0
	}
	required := 0.0
	for k, r := range q {
		if k > 0 {
			cum += est
		}
		window := r.DeadlineMs - now - s.TdvfsMs()
		if window <= 0 {
			required = fdef
			break
		}
		if f := cum / window; f > required {
			required = f
		}
	}
	f := s.Ladder().ClampUp(cpu.Freq(required))
	s.SetFreq(f)
	// Rubik is single-step: the whole queue runs at f until the next event,
	// so the head's decision record carries it as the initial frequency.
	s.TracePlan(q[0], f, 0, 0, -1)
}
