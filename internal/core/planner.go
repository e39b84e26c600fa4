// Package core implements Gemini's contribution: the heuristic one-or-two
// step DVFS planner of paper §III. Given a query's predicted service time S*
// (eq. 1) and predicted prediction-error E* (eq. 6), it selects the initial
// frequency (eq. 5), the boost time at which the core jumps to the maximum
// frequency to catch up with the deadline (eq. 7), the critical-request test
// under queueing (eq. 8), and the shared group frequency and boost time for
// the general N-request case (eqs. 12–15). The planner is pure math — the
// sim package executes its plans, the policy package decides when to invoke
// it.
package core

import (
	"math"

	"gemini/internal/cpu"
)

// Params fixes the platform constants of the planner.
type Params struct {
	// FDefault is the default = maximum = boosted frequency f_b.
	FDefault cpu.Freq
	// TdvfsMs is the transition stall charged around every frequency switch.
	TdvfsMs float64
	// Ladder quantizes requested frequencies (continuous solutions are
	// rounded up so a plan never runs slower than its math assumed).
	Ladder *cpu.Ladder
	// MarginMs is a small safety margin: plans target finishing the
	// budgeted work this long before the real deadline, so that residual
	// noise beyond the predicted error (which the boost step budgets for)
	// does not tip a just-in-time request over the budget.
	MarginMs float64
}

// DefaultParams returns the evaluation platform's planner parameters.
func DefaultParams() Params {
	return Params{FDefault: cpu.FDefault, TdvfsMs: cpu.TdvfsMs, Ladder: cpu.DefaultLadder(), MarginMs: 1.5}
}

// Plan is a two-step frequency schedule for the core.
type Plan struct {
	// Initial is the first-step frequency (already ladder-quantized).
	Initial cpu.Freq
	// BoostAt is the absolute time of the second step; +Inf when no boost
	// is needed (the first step alone meets the budgeted work).
	BoostAt float64
	// Boost is the second-step frequency (always FDefault, the maximum).
	Boost cpu.Freq
	// Drop reports that even boosting immediately cannot meet the deadline,
	// so the request should be dropped to save energy (§III-A).
	Drop bool
}

// HasBoost reports whether the plan schedules a second step.
func (p Plan) HasBoost() bool { return !math.IsInf(p.BoostAt, 1) && !p.Drop }

// budgetedMs returns the conservative service-time estimate S* + E* the
// planner must fit before the deadline, floored so that pathological
// negative error predictions cannot collapse the budget.
func budgetedMs(predMs, predErrMs float64) float64 {
	b := predMs + predErrMs
	if min := 0.2 * predMs; b < min {
		b = min
	}
	if b < 0.1 {
		b = 0.1
	}
	return b
}

// PlanSingle computes the two-step plan for a request that begins executing
// at startMs with the given absolute deadline — paper §III-A. predMs is the
// NN-predicted service time at FDefault (S*), predErrMs the predicted error
// (E*, signed; the sum S*+E* approximates the actual service time).
func (pp Params) PlanSingle(startMs, deadlineMs, predMs, predErrMs float64) Plan {
	fdef := float64(pp.FDefault)
	available := deadlineMs - startMs
	budget := budgetedMs(predMs, predErrMs)
	// Plans aim at the margin-adjusted deadline; the drop rule uses the real
	// one (a request is only abandoned when truly infeasible).
	planD := deadlineMs - pp.MarginMs

	// Drop rule: boosting immediately means running at FDefault for the
	// whole residual window; if even that cannot fit the budgeted work, the
	// response would be discarded by the aggregator anyway.
	if budget > available {
		return Plan{Initial: pp.FDefault, Boost: pp.FDefault, BoostAt: math.Inf(1), Drop: true}
	}

	// Eq. 5: f_1a = S*·f_default / (D − A).
	window := planD - startMs
	if window <= 0 {
		return Plan{Initial: pp.FDefault, Boost: pp.FDefault, BoostAt: math.Inf(1)}
	}
	raw := predMs * fdef / window
	// Quantize DOWN: the boost step exists precisely so the first step can
	// run below the continuous solution and catch up later — rounding up
	// would hand the quantization headroom to the hardware instead of
	// harvesting it (then the boost step would almost never engage).
	initial := pp.Ladder.ClampDown(cpu.Freq(raw))
	if raw >= fdef || initial >= pp.FDefault {
		return Plan{Initial: pp.FDefault, Boost: pp.FDefault, BoostAt: math.Inf(1)}
	}
	boostAt := pp.solveBoost(float64(initial), startMs, planD, cpu.Work(budget*fdef))
	if boostAt <= startMs+pp.TdvfsMs {
		// Worst case: boost right away (T_1 = A_1). A boost landing inside
		// the initial transition stall collapses to the same single step.
		return Plan{Initial: pp.FDefault, Boost: pp.FDefault, BoostAt: math.Inf(1)}
	}
	if boostAt >= planD-pp.TdvfsMs {
		// The first step alone completes the budgeted work in time.
		return Plan{Initial: initial, Boost: pp.FDefault, BoostAt: math.Inf(1)}
	}
	return Plan{Initial: initial, Boost: pp.FDefault, BoostAt: boostAt}
}

// solveBoost solves eq. 7 / eq. 15 for the boost time T:
//
//	f_a·(T − t0) + f_default·(D − T − Tdvfs) = W
//
// where W is the budgeted work in GHz·ms and t0 the time the first step
// begins. A result ≤ t0 means "boost immediately"; ≥ D means "no boost".
func (pp Params) solveBoost(fa, t0, deadline float64, w cpu.Work) float64 {
	fdef := float64(pp.FDefault)
	den := fa - fdef
	if den >= 0 {
		return math.Inf(1) // already at (or above) the boost frequency
	}
	// Derivation: fa·(T − t0 − Tdvfs) + fdef·(D − T − Tdvfs) = W, charging
	// the first Tdvfs to the initial transition and the second to the boost,
	// gives T·(fa − fdef) = W + fa·(t0 + Tdvfs) − fdef·(D − Tdvfs).
	num := float64(w) + fa*(t0+pp.TdvfsMs) - fdef*(deadline-pp.TdvfsMs)
	return num / den
}

// IsCritical implements eq. 8: a newly arrived request R_N is critical when
// the window between the previous request's deadline and its own cannot hold
// its budgeted work even at the boosted frequency f_b = FDefault:
//
//	(D_N − D_{N−1})·f_b < (S*_N + E*_N)·f_default
//
// With f_b = f_default the frequencies cancel into a pure time comparison.
func (pp Params) IsCritical(prevDeadlineMs, deadlineMs, predMs, predErrMs float64) bool {
	return deadlineMs-prevDeadlineMs < budgetedMs(predMs, predErrMs)
}

// QueuedEstimate is the planner's view of one queued request for equivalent-
// work computation.
type QueuedEstimate struct {
	PredMs    float64
	PredErrMs float64
}

// EquivalentWork implements eq. 12: the residual work of the executing
// request plus the budgeted work (S*+E*) of every queued request in between,
// plus the critical request's own predicted work S*_N·f_default.
func (pp Params) EquivalentWork(headResidual cpu.Work, between []QueuedEstimate, predNMs float64) cpu.Work {
	fdef := float64(pp.FDefault)
	w := float64(headResidual)
	for _, q := range between {
		w += budgetedMs(q.PredMs, q.PredErrMs) * fdef
	}
	w += predNMs * fdef
	return cpu.Work(w)
}

// HeadResidual implements eq. 13 against observed progress: the budgeted
// work of the executing request minus what it has already executed, floored
// at zero (a request running longer than predicted has unknown residual; the
// boost step is what protects it).
func (pp Params) HeadResidual(predMs, predErrMs float64, done cpu.Work) cpu.Work {
	w := cpu.Work(budgetedMs(predMs, predErrMs)*float64(pp.FDefault)) - done
	if w < 0 {
		w = 0
	}
	return w
}

// PlanGroup implements eqs. 14–15: on arrival of a critical request R_N at
// nowMs with the given deadline, pick the single shared frequency
// f'_1b = f_2a = … = f_Na for the whole group and the boost time T_N.
// eW is the equivalent work of eq. 12 and predErrNMs the critical request's
// predicted error E*_N (eq. 15 budgets it on top of eW).
func (pp Params) PlanGroup(nowMs, deadlineMs float64, eW cpu.Work, predErrNMs float64) Plan {
	fdef := float64(pp.FDefault)
	window := deadlineMs - nowMs - pp.TdvfsMs

	// Drop rule: even FDefault for the whole window cannot finish. The real
	// deadline is used here — margin never makes a request droppable.
	if window <= 0 || float64(eW) > fdef*window {
		return Plan{Initial: pp.FDefault, Boost: pp.FDefault, BoostAt: math.Inf(1), Drop: true}
	}

	planD := deadlineMs - pp.MarginMs
	planWindow := planD - nowMs - pp.TdvfsMs
	if planWindow <= 0 {
		return Plan{Initial: pp.FDefault, Boost: pp.FDefault, BoostAt: math.Inf(1)}
	}

	// Eq. 14: f_Na = eW / (D_N − A_N − Tdvfs), quantized down (the boost
	// step catches up, as in PlanSingle).
	raw := float64(eW) / planWindow
	initial := pp.Ladder.ClampDown(cpu.Freq(raw))
	if raw >= fdef || initial >= pp.FDefault {
		return Plan{Initial: pp.FDefault, Boost: pp.FDefault, BoostAt: math.Inf(1)}
	}

	// Eq. 15 budgets eW plus the critical request's own error slack.
	slack := predErrNMs
	if slack < 0 {
		slack = 0
	}
	budgetW := eW + cpu.Work(slack*fdef)
	boostAt := pp.solveBoost(float64(initial), nowMs, planD, budgetW)
	if boostAt <= nowMs+pp.TdvfsMs {
		// Boost-immediately, including the degenerate case where the boost
		// would land inside the initial transition stall.
		return Plan{Initial: pp.FDefault, Boost: pp.FDefault, BoostAt: math.Inf(1)}
	}
	if boostAt >= planD-pp.TdvfsMs {
		return Plan{Initial: initial, Boost: pp.FDefault, BoostAt: math.Inf(1)}
	}
	return Plan{Initial: initial, Boost: pp.FDefault, BoostAt: boostAt}
}
