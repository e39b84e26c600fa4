package queueing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gemini/internal/cpu"
	"gemini/internal/policy"
	"gemini/internal/sim"
	"gemini/internal/trace"
)

func TestRho(t *testing.T) {
	m := MG1{LambdaPerMs: 0.05, MeanServiceMs: 10, ServiceVarMs2: 25}
	if math.Abs(m.Rho()-0.5) > 1e-12 {
		t.Errorf("rho = %v", m.Rho())
	}
}

func TestMM1SpecialCase(t *testing.T) {
	// M/M/1 with λ=0.05/ms, µ=0.1/ms: W = 1/(µ−λ) = 20 ms.
	m := MG1{LambdaPerMs: 0.05, MeanServiceMs: 10, ServiceVarMs2: 100}
	w, err := m.MeanLatencyMs()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w-20) > 1e-9 {
		t.Errorf("M/M/1 mean latency = %v, want 20", w)
	}
}

func TestDeterministicServiceHalvesWait(t *testing.T) {
	// M/D/1 waits exactly half of M/M/1's queueing delay.
	mm1 := MG1{LambdaPerMs: 0.08, MeanServiceMs: 10, ServiceVarMs2: 100}
	md1 := MG1{LambdaPerMs: 0.08, MeanServiceMs: 10, ServiceVarMs2: 0}
	wm, _ := mm1.MeanWaitMs()
	wd, _ := md1.MeanWaitMs()
	if math.Abs(wd-wm/2) > 1e-9 {
		t.Errorf("M/D/1 wait %v, want half of %v", wd, wm)
	}
}

func TestUnstable(t *testing.T) {
	m := MG1{LambdaPerMs: 0.2, MeanServiceMs: 10}
	if _, err := m.MeanWaitMs(); err != ErrUnstable {
		t.Errorf("err = %v", err)
	}
	if _, err := m.MeanLatencyMs(); err != ErrUnstable {
		t.Errorf("err = %v", err)
	}
}

// Property: waiting time grows monotonically with load.
func TestWaitMonotoneInLoadProperty(t *testing.T) {
	f := func(aRaw, bRaw uint16) bool {
		a := float64(aRaw%90)/1000 + 0.0001 // λ up to 0.09/ms
		b := float64(bRaw%90)/1000 + 0.0001
		if a > b {
			a, b = b, a
		}
		ma := MG1{LambdaPerMs: a, MeanServiceMs: 10, ServiceVarMs2: 50}
		mb := MG1{LambdaPerMs: b, MeanServiceMs: 10, ServiceVarMs2: 50}
		wa, ea := ma.MeanWaitMs()
		wb, eb := mb.MeanWaitMs()
		if ea != nil || eb != nil {
			return true
		}
		return wa <= wb+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The simulator must converge to Pollaczek–Khinchine: run a long Poisson
// stream with a known service distribution at the default frequency and
// compare the mean latency to theory.
func TestSimulatorMatchesPollaczekKhinchine(t *testing.T) {
	const (
		lambdaPerMs = 0.06 // 60 req/s
		meanMs      = 8.0
		durationMs  = 2_000_000
	)
	rng := rand.New(rand.NewSource(17))
	tr := trace.GenFixedRPS(lambdaPerMs*1000, durationMs, 9)

	wl := &sim.Workload{BudgetMs: 1e9, DurationMs: durationMs}
	var sum, sumsq float64
	for i, at := range tr.Arrivals {
		// Uniform service on [2, 14] ms: mean 8, var 12.
		ms := 2 + rng.Float64()*12
		sum += ms
		sumsq += ms * ms
		w := cpu.Work(ms * float64(cpu.FDefault))
		wl.Requests = append(wl.Requests, &sim.Request{
			ID: i, BaseWork: w, WorkTotal: w, ArrivalMs: at, DeadlineMs: at + 1e9,
		})
	}
	n := float64(len(wl.Requests))
	empMean := sum / n
	empVar := sumsq/n - empMean*empMean

	res := sim.Run(sim.DefaultConfig(), wl, policy.FixedFreq{F: cpu.FDefault})
	theory := MG1{
		LambdaPerMs:   n / durationMs, // realized rate
		MeanServiceMs: empMean,
		ServiceVarMs2: empVar,
	}
	want, err := theory.MeanLatencyMs()
	if err != nil {
		t.Fatal(err)
	}
	got := res.MeanLatencyMs()
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("simulated mean latency %.3f ms vs P-K %.3f ms (>5%% off)", got, want)
	}
}
