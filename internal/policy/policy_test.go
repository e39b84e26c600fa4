package policy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gemini/internal/cpu"
	"gemini/internal/predictor"
	"gemini/internal/search"
	"gemini/internal/sim"
)

// Test predictors read the expected prediction straight from feature slots:
// Features[0] = predicted service ms, Features[1] = predicted error ms.
type featService struct{}

func (featService) PredictMs(fv search.FeatureVector) float64 { return fv[0] }
func (featService) Name() string                              { return "feat-service" }
func (featService) OverheadUs() float64                       { return 1 }

type featError struct{}

func (featError) PredictErrMs(fv search.FeatureVector) float64 { return fv[1] }
func (featError) Name() string                                 { return "feat-error" }
func (featError) OverheadUs() float64                          { return 1 }

// req builds a request with explicit actual work (GHz·ms), predicted ms and
// predicted error ms.
type reqSpec struct {
	at, actualMs, predMs, predErrMs float64
}

func mkWL(budget, duration float64, specs ...reqSpec) *sim.Workload {
	wl := &sim.Workload{BudgetMs: budget, DurationMs: duration}
	for i, sp := range specs {
		var fv search.FeatureVector
		fv[0] = sp.predMs
		fv[1] = sp.predErrMs
		w := cpu.Work(sp.actualMs * float64(cpu.FDefault))
		wl.Pool = append(wl.Pool, sim.PreparedQuery{Features: fv})
		wl.Add(sp.at, sim.Draw{Base: w, Work: w, PoolIdx: int32(i)})
	}
	return wl
}

func runPolicy(t *testing.T, wl *sim.Workload, p sim.Policy) *sim.Result {
	t.Helper()
	return sim.Run(sim.DefaultConfig(), wl, p)
}

func newTestGemini() *Gemini { return NewGemini(featService{}, featError{}) }

// newRubik is Rubik profiled on the one service time s95Ms: its tail, and
// the conditional tail of every request still short of it, is s95Ms.
func newRubik(s95Ms float64) *Rubik {
	return NewRubikFromSorted([]float64{s95Ms})
}

func TestBaselineNeverViolatesLightLoad(t *testing.T) {
	wl := mkWL(40, 1000,
		reqSpec{at: 0, actualMs: 10, predMs: 10},
		reqSpec{at: 100, actualMs: 20, predMs: 20},
		reqSpec{at: 200, actualMs: 5, predMs: 5})
	res := runPolicy(t, wl, Baseline{})
	if res.Violations != 0 || res.Completed != 3 {
		t.Fatalf("violations=%d completed=%d", res.Violations, res.Completed)
	}
	if res.Transitions != 0 {
		t.Errorf("baseline made %d transitions", res.Transitions)
	}
	// Latency equals service time at 2.7 GHz.
	if math.Abs(res.Requests[0].LatencyMs()-10) > 1e-9 {
		t.Errorf("latency = %v", res.Requests[0].LatencyMs())
	}
}

func TestGeminiSingleRequestInitialFrequency(t *testing.T) {
	// 20 ms predicted (exact), 40 ms budget: eq. 5 gives 1.385, quantized
	// down to 1.2 GHz with a catch-up boost near the deadline.
	wl := mkWL(40, 200, reqSpec{at: 0, actualMs: 20, predMs: 20, predErrMs: 0})
	res := runPolicy(t, wl, newTestGemini())
	if res.Violations != 0 {
		t.Fatalf("violations = %d", res.Violations)
	}
	r := res.Requests[0]
	// Slower than 2.7 GHz would be (20 ms), within the budget, and close to
	// the margin-adjusted deadline (the "reshaping" of Fig. 13a).
	if r.LatencyMs() <= 25 || r.LatencyMs() > 40 {
		t.Errorf("latency = %v, want within (25, 40]", r.LatencyMs())
	}
}

func TestGeminiSavesEnergyVsBaseline(t *testing.T) {
	specs := []reqSpec{}
	for i := 0; i < 20; i++ {
		specs = append(specs, reqSpec{at: float64(i) * 50, actualMs: 10, predMs: 10})
	}
	g := runPolicy(t, mkWL(40, 1100, specs...), newTestGemini())
	b := runPolicy(t, mkWL(40, 1100, specs...), Baseline{})
	if g.Violations != 0 {
		t.Fatalf("gemini violations = %d", g.Violations)
	}
	saving := g.PowerSavingVs(b, cpu.DefaultPowerModel())
	if saving < 0.25 {
		t.Errorf("gemini saving = %.2f, want > 0.25", saving)
	}
}

func TestGeminiBoostRescuesUnderprediction(t *testing.T) {
	// Actual 26 ms, predicted 20, error predictor says +6: the boost step
	// must catch the deadline.
	wl := mkWL(40, 200, reqSpec{at: 0, actualMs: 26, predMs: 20, predErrMs: 6})
	res := runPolicy(t, wl, newTestGemini())
	if res.Violations != 0 {
		t.Fatalf("violated despite error slack: latency=%v", res.Requests[0].LatencyMs())
	}
	if res.Transitions < 2 {
		t.Errorf("expected a boost transition, got %d transitions", res.Transitions)
	}
}

func TestGeminiWithoutErrorSlackViolates(t *testing.T) {
	// Same request but the error predictor reports 0: the initial frequency
	// is too slow and no boost is scheduled — the deadline is missed. This
	// is exactly the failure mode the second NN exists to prevent (§IV-C).
	wl := mkWL(40, 200, reqSpec{at: 0, actualMs: 26, predMs: 20, predErrMs: 0})
	g := NewGemini(featService{}, predictor.ZeroError{})
	res := runPolicy(t, wl, g)
	if res.Violations == 0 {
		t.Fatalf("expected a violation without error slack; latency=%v", res.Requests[0].LatencyMs())
	}
}

func TestGeminiDropsInfeasible(t *testing.T) {
	wl := mkWL(40, 200, reqSpec{at: 0, actualMs: 100, predMs: 100, predErrMs: 0})
	res := runPolicy(t, wl, newTestGemini())
	if res.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", res.Dropped)
	}
	// With drops disabled it runs at max and violates instead.
	g := newTestGemini()
	g.DisableDrop = true
	wl2 := mkWL(40, 200, reqSpec{at: 0, actualMs: 100, predMs: 100, predErrMs: 0})
	res2 := runPolicy(t, wl2, g)
	if res2.Dropped != 0 || res2.Completed != 1 || res2.Violations != 1 {
		t.Errorf("no-drop mode: %+v", res2)
	}
}

func TestGeminiIdleFrequency(t *testing.T) {
	wl := mkWL(40, 500, reqSpec{at: 0, actualMs: 10, predMs: 10})
	g := newTestGemini()
	cfg := sim.DefaultConfig()
	res := sim.Run(cfg, wl, g)
	// After the queue drains Gemini parks at the ladder minimum: average
	// power must be near the idle floor, far below baseline's.
	idleW := cfg.Power.CoreW(cpu.DefaultLadder().Min(), false)
	if res.AvgCorePowW > idleW*1.5 {
		t.Errorf("avg power %v too high for a mostly idle run (idle floor %v)", res.AvgCorePowW, idleW)
	}
}

func TestGeminiCriticalRequestGroupBoost(t *testing.T) {
	// Head: 20 ms predicted, runs slow. Critical arrival at t=5 with a
	// deadline only 5 ms after the head's: must trigger the group boost
	// (eq. 8: gap 5 < 18 predicted).
	wl := mkWL(40, 300,
		reqSpec{at: 0, actualMs: 20, predMs: 20, predErrMs: 0},
		reqSpec{at: 5, actualMs: 18, predMs: 18, predErrMs: 0})
	res := runPolicy(t, wl, newTestGemini())
	if res.Violations != 0 || res.Dropped != 0 {
		t.Fatalf("violations=%d dropped=%d (lat0=%v lat1=%v)",
			res.Violations, res.Dropped,
			res.Requests[0].LatencyMs(), res.Requests[1].LatencyMs())
	}
	// Both must finish before their deadlines with the shared frequency.
	if res.Requests[1].FinishMs > res.Requests[1].DeadlineMs {
		t.Errorf("critical request finished at %v, deadline %v",
			res.Requests[1].FinishMs, res.Requests[1].DeadlineMs)
	}
}

func TestGeminiNonCriticalArrivalNoReplan(t *testing.T) {
	// Second request's deadline leaves plenty of room after the first's:
	// non-critical, so the in-flight frequency must not change on arrival.
	wl := mkWL(40, 500,
		reqSpec{at: 0, actualMs: 8, predMs: 8, predErrMs: 0},
		reqSpec{at: 30, actualMs: 5, predMs: 5, predErrMs: 0})
	res := runPolicy(t, wl, newTestGemini())
	if res.Violations != 0 {
		t.Fatalf("violations = %d", res.Violations)
	}
}

func TestGeminiQueueChain(t *testing.T) {
	// A burst of five requests with staggered deadlines: all must complete
	// in FIFO order without violations (predictions exact).
	var specs []reqSpec
	for i := 0; i < 5; i++ {
		specs = append(specs, reqSpec{at: float64(i), actualMs: 6, predMs: 6, predErrMs: 0.5})
	}
	wl := mkWL(40, 300, specs...)
	res := runPolicy(t, wl, newTestGemini())
	if res.Violations != 0 || res.Completed != 5 {
		for _, r := range res.Requests {
			t.Logf("req %d: lat %.2f deadline %.2f dropped %v", r.ID, r.LatencyMs(), r.DeadlineMs-r.ArrivalMs, r.Dropped)
		}
		t.Fatalf("violations=%d completed=%d", res.Violations, res.Completed)
	}
}

func TestGeminiAlphaObservesErrors(t *testing.T) {
	// Systematic +2 ms underprediction: after enough departures the moving
	// average approaches +2 and later requests stop violating.
	var specs []reqSpec
	for i := 0; i < 30; i++ {
		specs = append(specs, reqSpec{at: float64(i) * 100, actualMs: 22, predMs: 20})
	}
	wl := mkWL(40, 3100, specs...)
	g := NewGeminiAlpha(featService{})
	res := runPolicy(t, wl, g)
	// Early requests may violate; late ones must not.
	late := res.Requests[20:]
	for _, r := range late {
		if r.Violated() {
			t.Errorf("late request %d still violates (lat %.2f)", r.ID, r.LatencyMs())
		}
	}
	if res.Completed != 30 {
		t.Errorf("completed = %d", res.Completed)
	}
}

func TestGemini95UsesConstantEstimate(t *testing.T) {
	p95 := &predictor.Percentile95{ValueMs: 35}
	g := NewGemini95(p95)
	// Short request (15 ms) still planned as if 35 ms: runs faster than
	// necessary (2.4 GHz instead of 1.2), wasting energy vs full Gemini —
	// the Fig. 14 gap.
	wlA := mkWL(40, 300, reqSpec{at: 0, actualMs: 15, predMs: 15})
	resA := runPolicy(t, wlA, g)
	wlB := mkWL(40, 300, reqSpec{at: 0, actualMs: 15, predMs: 15})
	resB := runPolicy(t, wlB, newTestGemini())
	if resA.Violations != 0 || resB.Violations != 0 {
		t.Fatal("violations in either variant")
	}
	if resB.EnergyMJ >= resA.EnergyMJ {
		t.Errorf("full Gemini energy %v >= Gemini-95th %v", resB.EnergyMJ, resA.EnergyMJ)
	}
}

func TestRubikMeetsDeadlinesConservatively(t *testing.T) {
	var specs []reqSpec
	rng := rand.New(rand.NewSource(4))
	at := 0.0
	for i := 0; i < 40; i++ {
		at += rng.ExpFloat64() * 20
		actual := 2 + rng.Float64()*10 // all under the 13 ms tail estimate
		specs = append(specs, reqSpec{at: at, actualMs: actual, predMs: actual})
	}
	wl := mkWL(40, at+100, specs...)
	res := runPolicy(t, wl, newRubik(13))
	if res.Violations != 0 {
		t.Fatalf("rubik violations = %d", res.Violations)
	}
	if res.Completed != 40 {
		t.Errorf("completed = %d", res.Completed)
	}
}

func TestRubikUsesMoreEnergyThanGemini(t *testing.T) {
	var specs []reqSpec
	for i := 0; i < 30; i++ {
		specs = append(specs, reqSpec{at: float64(i) * 50, actualMs: 10, predMs: 10, predErrMs: 0.5})
	}
	dur := 30*50 + 100.0
	// Rubik plans every request as a 30 ms tail case (2.2 GHz); Gemini's
	// per-query prediction runs these 10 ms requests at 1.2 GHz.
	rb := runPolicy(t, mkWL(40, dur, specs...), newRubik(30))
	gm := runPolicy(t, mkWL(40, dur, specs...), newTestGemini())
	if gm.Violations != 0 || rb.Violations != 0 {
		t.Fatal("violations")
	}
	if gm.EnergyMJ >= rb.EnergyMJ {
		t.Errorf("gemini energy %v >= rubik %v (per-query prediction should win)", gm.EnergyMJ, rb.EnergyMJ)
	}
}

func TestPegasusStepsDownUnderLightLoad(t *testing.T) {
	// Short requests far below the budget: epochs keep stepping down.
	var specs []reqSpec
	for i := 0; i < 40; i++ {
		specs = append(specs, reqSpec{at: float64(i) * 100, actualMs: 5, predMs: 5})
	}
	wl := mkWL(40, 4100, specs...)
	res := runPolicy(t, wl, NewPegasus())
	if res.Violations != 0 {
		t.Fatalf("violations = %d", res.Violations)
	}
	b := runPolicy(t, mkWL(40, 4100, specs...), Baseline{})
	if res.EnergyMJ >= b.EnergyMJ {
		t.Errorf("pegasus energy %v >= baseline %v", res.EnergyMJ, b.EnergyMJ)
	}
}

func TestPegasusRecoversFromViolation(t *testing.T) {
	// A long request violates at low frequency; the next epoch jumps to max.
	specs := []reqSpec{
		{at: 0, actualMs: 5, predMs: 5},     // settles the controller down
		{at: 500, actualMs: 39, predMs: 39}, // will violate at low freq
		{at: 700, actualMs: 39, predMs: 39}, // must run at max
	}
	wl := mkWL(40, 1200, specs...)
	res := runPolicy(t, wl, NewPegasus())
	_ = res
	last := res.Requests[2]
	// After the violation epoch the controller is at max: 39 ms fits.
	if last.Violated() {
		t.Errorf("pegasus did not recover: latency %v", last.LatencyMs())
	}
}

func TestEETLCompletesAndAdapts(t *testing.T) {
	var specs []reqSpec
	rng := rand.New(rand.NewSource(9))
	at := 0.0
	for i := 0; i < 60; i++ {
		at += rng.ExpFloat64() * 30
		specs = append(specs, reqSpec{at: at, actualMs: 3 + rng.Float64()*9})
	}
	wl := mkWL(40, at+100, specs...)
	res := runPolicy(t, wl, NewEETL())
	if res.Completed != 60 {
		t.Fatalf("completed = %d", res.Completed)
	}
	if res.ViolationRate() > 0.15 {
		t.Errorf("EETL violation rate = %v", res.ViolationRate())
	}
}

func TestPACEOracleIsLowerBound(t *testing.T) {
	var specs []reqSpec
	rng := rand.New(rand.NewSource(5))
	at := 0.0
	for i := 0; i < 40; i++ {
		at += rng.ExpFloat64() * 25
		ms := 2 + rng.Float64()*12
		specs = append(specs, reqSpec{at: at, actualMs: ms, predMs: ms, predErrMs: 1})
	}
	dur := at + 100
	oracle := runPolicy(t, mkWL(40, dur, specs...), NewPACEOracle())
	gem := runPolicy(t, mkWL(40, dur, specs...), newTestGemini())
	// Just-in-time pacing can lose a few deadlines to bursts it cannot
	// foresee (Table I's criticism of PACE); the energy bound is the point.
	if oracle.ViolationRate() > 0.15 {
		t.Fatalf("oracle violation rate = %v", oracle.ViolationRate())
	}
	if oracle.EnergyMJ > gem.EnergyMJ*1.02 {
		t.Errorf("oracle energy %v above Gemini %v — not a lower bound", oracle.EnergyMJ, gem.EnergyMJ)
	}
}

func TestSleepWrapperSavesIdleEnergy(t *testing.T) {
	specs := []reqSpec{{at: 0, actualMs: 10, predMs: 10}}
	plain := runPolicy(t, mkWL(40, 2000, specs...), newTestGemini())
	slept := runPolicy(t, mkWL(40, 2000, specs...), NewSleepWrapper(newTestGemini()))
	if slept.EnergyMJ >= plain.EnergyMJ {
		t.Errorf("sleep energy %v >= plain %v", slept.EnergyMJ, plain.EnergyMJ)
	}
	if slept.Violations != 0 {
		t.Errorf("sleep wrapper caused violations")
	}
}

func TestSleepWrapperWakeLatencyCharged(t *testing.T) {
	specs := []reqSpec{
		{at: 0, actualMs: 10, predMs: 10},
		{at: 1000, actualMs: 10, predMs: 10},
	}
	wl := mkWL(40, 2000, specs...)
	res := runPolicy(t, wl, NewSleepWrapper(newTestGemini()))
	if res.Violations != 0 {
		t.Fatal("violations")
	}
	// The second request pays the wake latency on top of its service time;
	// it must still be well within budget.
	if res.Requests[1].LatencyMs() <= res.Requests[0].LatencyMs()-1e9 {
		t.Errorf("unexpected latencies: %v vs %v", res.Requests[1].LatencyMs(), res.Requests[0].LatencyMs())
	}
}

func TestFixedFreqPolicy(t *testing.T) {
	wl := mkWL(200, 300, reqSpec{at: 0, actualMs: 10, predMs: 10})
	res := runPolicy(t, wl, &sim.FixedPolicy{F: 1.2})
	want := 10*2.7/1.2 + cpu.TdvfsMs
	if math.Abs(res.Latencies[0]-want) > 1e-6 {
		t.Errorf("latency = %v, want %v", res.Latencies[0], want)
	}
}

// Property: with exact predictions and a feasible, lightly loaded workload,
// Gemini never violates a deadline — the paper's guarantee when the error
// bound holds.
func TestGeminiNoViolationWithPerfectPredictionsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var specs []reqSpec
		at := 0.0
		for i := 0; i < 25; i++ {
			at += 15 + rng.ExpFloat64()*25
			ms := 1 + rng.Float64()*12
			specs = append(specs, reqSpec{at: at, actualMs: ms, predMs: ms, predErrMs: 0.5})
		}
		wl := mkWL(40, at+100, specs...)
		res := sim.Run(sim.DefaultConfig(), wl, newTestGemini())
		return res.Violations == 0 && res.Dropped == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Failure injection: a predictor returning garbage must not crash the
// policy, and the drop/boost machinery bounds the damage.
func TestGeminiGarbagePredictorSurvives(t *testing.T) {
	garbage := garbageService{}
	g := NewGemini(garbage, predictor.ZeroError{})
	var specs []reqSpec
	for i := 0; i < 20; i++ {
		specs = append(specs, reqSpec{at: float64(i) * 60, actualMs: 8})
	}
	wl := mkWL(40, 1300, specs...)
	res := runPolicy(t, wl, g)
	if res.Completed+res.Dropped != 20 {
		t.Fatalf("requests lost: completed=%d dropped=%d", res.Completed, res.Dropped)
	}
}

type garbageService struct{}

func (garbageService) PredictMs(fv search.FeatureVector) float64 {
	// Alternating absurd values.
	if int(fv[0])%2 == 0 {
		return -50
	}
	return 1e6
}
func (garbageService) Name() string        { return "garbage" }
func (garbageService) OverheadUs() float64 { return 1 }
