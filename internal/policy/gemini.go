package policy

import (
	"math"

	"gemini/internal/core"
	"gemini/internal/cpu"
	"gemini/internal/predictor"
	"gemini/internal/sim"
)

// Gemini is the paper's contribution wired to the simulator: per-query
// two-step DVFS (§III-A) driven by the NN service-time predictor and the NN
// error predictor, with group frequency planning around critical requests
// under queueing (§III-B/C) and the drop rule for infeasible requests.
//
// The ablation variants of §VI are the same controller with the predictors
// swapped: Gemini-α replaces the error NN with a moving average of recent
// errors, Gemini-95th additionally replaces the latency NN with the
// 95th-percentile distribution estimate.
type Gemini struct {
	// Label distinguishes the variants in reports ("Gemini", "Gemini-a",
	// "Gemini-95th").
	Label string
	// Params is the planner math (frequencies, Tdvfs, ladder).
	Params core.Params
	// Service predicts per-query service time at FDefault (eq. 1).
	Service predictor.ServicePredictor
	// ErrPred predicts the service predictor's error (eq. 6). For Gemini-α
	// pass a *predictor.MovingAvgError; it is fed on every departure.
	ErrPred predictor.ErrorPredictor
	// DisableDrop keeps infeasible requests (failure-injection tests).
	DisableDrop bool
	// DisableBoost removes the second DVFS step (ablation: one-step DVFS
	// from the prediction alone — quantifies the catch-up step's value).
	DisableBoost bool
	// NoGrouping re-plans individually at every request start instead of
	// pinning a shared group frequency (ablation: quantifies the transition
	// overhead the grouping rule of §III-C avoids).
	NoGrouping bool
	// UseCachedService / UseCachedErr route OnArrival's predictions through
	// the pool-indexed table the workload carries (sim.Predictions) instead
	// of invoking Service / ErrPred per arrival. The harness sets these only
	// when the table was produced by the very same predictor instances, so
	// cached and live paths are bit-identical
	// (TestCachedPredictionsMatchLive); stateful estimators (Gemini-α's
	// moving average) must keep the live path.
	UseCachedService bool
	UseCachedErr     bool
	// IdleFreq is applied when the queue drains.
	IdleFreq cpu.Freq

	// Group state: while a critical request is in flight, every request up
	// to and including it shares the group frequency and must not re-plan
	// individually (§III-C: "all requests in between ... adopt the same
	// frequency to minimize the frequency transition overhead"). The group
	// is the FIFO prefix up to the critical request and closes when that
	// request departs, so membership needs no set: any request that starts
	// while criticalID >= 0 is ahead of the critical one in the queue.
	criticalID int
	// between is equivalentWork's scratch, reused across plans.
	between []core.QueuedEstimate
}

// NewGemini builds the full design (service NN + error NN).
func NewGemini(svc predictor.ServicePredictor, errp predictor.ErrorPredictor) *Gemini {
	return &Gemini{
		Label:      "Gemini",
		Params:     core.DefaultParams(),
		Service:    svc,
		ErrPred:    errp,
		IdleFreq:   cpu.DefaultLadder().Min(),
		criticalID: -1,
	}
}

// NewGeminiAlpha builds the Gemini-α ablation: the error NN is replaced by
// the moving average of the last 60 observed errors (§VI-A).
func NewGeminiAlpha(svc predictor.ServicePredictor) *Gemini {
	g := NewGemini(svc, predictor.NewMovingAvgError(60))
	g.Label = "Gemini-a"
	return g
}

// NewGemini95 builds the Gemini-95th ablation: Gemini-α with the latency NN
// also replaced by the 95th-percentile distribution estimate (§VI-D).
func NewGemini95(p95 *predictor.Percentile95) *Gemini {
	g := NewGemini(p95, predictor.NewMovingAvgError(60))
	g.Label = "Gemini-95th"
	// The constant tail estimate wildly overstates most requests' work;
	// Gemini's drop rule would spuriously abandon queued requests that are
	// perfectly feasible, so this variant only uses the estimate for
	// frequency selection (as Rubik does).
	g.DisableDrop = true
	return g
}

// Name implements sim.Policy.
func (g *Gemini) Name() string {
	if g.Label == "" {
		return "Gemini"
	}
	return g.Label
}

// Init implements sim.Policy.
func (g *Gemini) Init(s *sim.Sim) {
	g.criticalID = -1
	s.SetFreq(g.IdleFreq)
}

// OnArrival implements sim.Policy: predict, then apply the critical-request
// test when the request queues behind others (§III-B/C).
func (g *Gemini) OnArrival(s *sim.Sim, r *sim.Request) {
	svcMs, errMs, cached := s.Predictions().Lookup(r)
	if cached && g.UseCachedService {
		r.PredictedMs = svcMs
	} else {
		r.PredictedMs = g.Service.PredictMs(r.Entry.Features)
	}
	if cached && g.UseCachedErr {
		r.PredErrMs = errMs
	} else {
		r.PredErrMs = g.ErrPred.PredictErrMs(r.Entry.Features)
	}

	q := s.Queue()
	if len(q) < 2 {
		return // idle server: OnStart plans the two-step schedule
	}

	prev := q[len(q)-2]
	if !g.Params.IsCritical(prev.DeadlineMs, r.DeadlineMs, r.PredictedMs, r.PredErrMs) {
		return // Case 1b: non-critical, no reconfiguration needed
	}

	// Case 3b / Case 1 (N requests): boost the current frequency so the
	// whole group clears before the critical deadline.
	eW := g.equivalentWork(s, q, len(q)-1)
	plan := g.Params.PlanGroup(s.Now(), r.DeadlineMs, eW, r.PredErrMs)
	if plan.Drop {
		if !g.DisableDrop {
			s.Drop(r)
		}
		return
	}
	// Never lower the in-flight frequency: earlier guarantees assumed it.
	freq := plan.Initial
	if s.Freq() > freq {
		freq = s.Freq()
	}
	s.ClearPlannedChanges()
	s.SetFreq(freq)
	if plan.HasBoost() && !g.DisableBoost {
		s.PlanFreqChange(plan.BoostAt, plan.Boost)
	}
	g.tracePlan(s, r, freq, plan, r.ID)
	g.criticalID = r.ID
}

// OnStart implements sim.Policy: requests covered by an active group keep
// the shared frequency; everything else gets its own two-step plan.
func (g *Gemini) OnStart(s *sim.Sim, r *sim.Request) {
	if !g.NoGrouping && g.criticalID >= 0 {
		return
	}
	g.planHead(s, r)
}

// planHead computes the queue-aware plan when request r begins executing:
// with an empty tail this is the single-request two-step DVFS of §III-A;
// with queued successors it finds the binding (critical) request and applies
// the group construction of §III-C ("we find the next critical request ...
// then our design uses the method in Case 1").
func (g *Gemini) planHead(s *sim.Sim, r *sim.Request) {
	q := s.Queue()
	bind := g.bindingIndex(s, q)
	if bind == 0 {
		plan := g.Params.PlanSingle(s.Now(), r.DeadlineMs, r.PredictedMs, r.PredErrMs)
		g.applyPlan(s, r, plan)
		return
	}
	crit := q[bind]
	eW := g.equivalentWork(s, q, bind)
	plan := g.Params.PlanGroup(s.Now(), crit.DeadlineMs, eW, crit.PredErrMs)
	if plan.Drop {
		// The binding request cannot make it even at maximum: drop it and
		// re-plan for the rest.
		if !g.DisableDrop {
			s.Drop(crit)
			g.planHead(s, r)
			return
		}
		plan.Drop = false // failure-injection mode: run at max instead
	}
	s.ClearPlannedChanges()
	s.SetFreq(plan.Initial)
	if plan.HasBoost() && !g.DisableBoost {
		s.PlanFreqChange(plan.BoostAt, plan.Boost)
	}
	g.tracePlan(s, r, plan.Initial, plan, crit.ID)
	g.criticalID = crit.ID
}

// applyPlan executes a single-request plan for the head request.
func (g *Gemini) applyPlan(s *sim.Sim, r *sim.Request, plan core.Plan) {
	if plan.Drop {
		if !g.DisableDrop {
			s.Drop(r)
			return
		}
		plan = core.Plan{Initial: g.Params.FDefault, Boost: g.Params.FDefault}
	}
	s.ClearPlannedChanges()
	s.SetFreq(plan.Initial)
	if plan.HasBoost() && !g.DisableBoost {
		s.PlanFreqChange(plan.BoostAt, plan.Boost)
	}
	g.tracePlan(s, r, plan.Initial, plan, -1)
}

// tracePlan reports the chosen schedule to the decision tracer (no-op when
// tracing is disabled). The boost step is reported only when it will
// actually be armed, so disabled-boost ablations trace what they execute.
func (g *Gemini) tracePlan(s *sim.Sim, r *sim.Request, initial cpu.Freq, plan core.Plan, criticalID int) {
	if !s.TraceEnabled() {
		return
	}
	boost, boostAt := cpu.Freq(0), 0.0
	if plan.HasBoost() && !g.DisableBoost {
		boost, boostAt = plan.Boost, plan.BoostAt
	}
	s.TracePlan(r, initial, boost, boostAt, criticalID)
}

// bindingIndex returns the queue index whose deadline demands the highest
// shared frequency from now on — index 0 means the head alone binds.
func (g *Gemini) bindingIndex(s *sim.Sim, q []*sim.Request) int {
	fdef := float64(g.Params.FDefault)
	now := s.Now()
	cum := float64(g.Params.HeadResidual(q[0].PredictedMs, q[0].PredErrMs, q[0].WorkDone))
	best, bestReq := 0, 0.0
	for k, r := range q {
		if k > 0 {
			if k == len(q)-1 {
				cum += r.PredictedMs * fdef // eq. 12: last request budgets S* only
			} else {
				cum += (r.PredictedMs + r.PredErrMs) * fdef
			}
		}
		window := r.DeadlineMs - now - g.Params.TdvfsMs
		req := fdef // infeasible window: max pressure
		if window > 0 {
			req = cum / window
		}
		if req > bestReq {
			bestReq, best = req, k
		}
	}
	return best
}

// equivalentWork implements eq. 12 over the live queue: head residual plus
// budgeted work of requests 1..critIdx-1 plus the critical request's S*.
func (g *Gemini) equivalentWork(s *sim.Sim, q []*sim.Request, critIdx int) cpu.Work {
	head := q[0]
	residual := g.Params.HeadResidual(head.PredictedMs, head.PredErrMs, head.WorkDone)
	g.between = g.between[:0]
	for _, m := range q[1:critIdx] {
		g.between = append(g.between, core.QueuedEstimate{PredMs: m.PredictedMs, PredErrMs: m.PredErrMs})
	}
	return g.Params.EquivalentWork(residual, g.between, q[critIdx].PredictedMs)
}

// OnDeparture implements sim.Policy: feed the moving-average estimator (the
// α variant observes true errors of completed requests), close the group
// when its critical request leaves, and drop to the idle frequency when the
// queue drains.
func (g *Gemini) OnDeparture(s *sim.Sim, r *sim.Request) {
	if ma, ok := g.ErrPred.(*predictor.MovingAvgError); ok {
		// Gemini-α observes the completed request's error magnitude; the
		// estimator turns the window into a conservative population slack.
		actualMs := float64(r.WorkTotal) / float64(g.Params.FDefault)
		ma.Observe(math.Abs(actualMs - r.PredictedMs))
	}
	if r.ID == g.criticalID {
		g.criticalID = -1
		// The successor's OnStart (fired right after this) re-plans the
		// remaining queue via planHead.
	}
	if len(s.Queue()) == 0 {
		s.ClearPlannedChanges()
		s.SetFreq(g.IdleFreq)
	}
}

// OnTimer implements sim.Policy.
func (g *Gemini) OnTimer(*sim.Sim, int64) {}
