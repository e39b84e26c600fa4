package sim_test

import (
	"math"
	"testing"

	"gemini/internal/cpu"
	"gemini/internal/queueing"
	"gemini/internal/sim"
)

// TestEngineConvergesToPollaczekKhinchine checks the engines against an
// oracle neither of them wrote. BenchWorkloadRate is an M/G/1 queue (Poisson
// arrivals, service uniform on 2–22 ms at the default frequency: E[S] = 12,
// Var[S] = 20²/12), so under a fixed frequency the simulated mean latency must
// converge to the Pollaczek–Khinchine mean. Every other engine test compares
// one in-repo engine with the other, or with a golden of what the code did.
func TestEngineConvergesToPollaczekKhinchine(t *testing.T) {
	const n, seed = 200_000, 3
	for _, c := range []struct{ meanGapMs, tol float64 }{
		{40, 0.005}, // ρ = 0.30
		{25, 0.005}, // ρ = 0.48
		{20, 0.005}, // ρ = 0.60
		{15, 0.02},  // ρ = 0.80: the mean wait's own variance grows as 1/(1−ρ)⁴
	} {
		want, err := queueing.MG1{
			LambdaPerMs:   1 / c.meanGapMs,
			MeanServiceMs: 12,
			ServiceVarMs2: 400.0 / 12,
		}.MeanLatencyMs()
		if err != nil {
			t.Fatal(err)
		}
		for _, linear := range []bool{false, true} {
			cfg := sim.DefaultConfig()
			sim.SetLinearEngine(&cfg, linear)
			res := sim.Run(cfg, sim.BenchWorkloadRate(n, seed, c.meanGapMs), &sim.FixedPolicy{F: cpu.FDefault})
			if res.Completed != n {
				t.Fatalf("gap %v ms, linear=%v: %d of %d requests completed", c.meanGapMs, linear, res.Completed, n)
			}
			got := res.MeanLatencyMs()
			if rel := math.Abs(got-want) / want; rel > c.tol {
				t.Errorf("gap %v ms, linear=%v: simulated mean latency %.4f ms, Pollaczek–Khinchine %.4f ms (off by %.2f%%, tolerance %.1f%%)",
					c.meanGapMs, linear, got, want, 100*rel, 100*c.tol)
			} else {
				t.Logf("gap %v ms, linear=%v: %.4f ms vs %.4f ms (%.2f%%)", c.meanGapMs, linear, got, want, 100*rel)
			}
		}
	}
}
