package policy

import (
	"math/rand"
	"testing"

	"gemini/internal/cpu"
	"gemini/internal/search"
	"gemini/internal/sim"
)

// benchWL builds a stream with self-describing predictions (features carry
// the prediction, as in the unit tests).
func benchWL(n int, seed int64) *sim.Workload {
	rng := rand.New(rand.NewSource(seed))
	wl := &sim.Workload{BudgetMs: 40}
	at := 0.0
	for i := 0; i < n; i++ {
		at += rng.ExpFloat64() * 25
		ms := 2 + rng.Float64()*20
		var fv search.FeatureVector
		fv[0] = ms
		fv[1] = 0.5
		w := cpu.Work(ms * 2.7)
		wl.Requests = append(wl.Requests, &sim.Request{
			ID: i, Entry: &sim.PreparedQuery{Features: fv}, BaseWork: w, WorkTotal: w,
			ArrivalMs: at, DeadlineMs: at + 40,
		})
	}
	wl.DurationMs = at + 100
	return wl
}

func benchPolicy(b *testing.B, mk func() sim.Policy) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		wl := benchWL(2000, int64(i))
		pol := mk()
		b.StartTimer()
		sim.Run(sim.DefaultConfig(), wl, pol)
	}
}

func BenchmarkBaselinePolicy(b *testing.B) {
	benchPolicy(b, func() sim.Policy { return Baseline{} })
}

func BenchmarkGeminiPolicy(b *testing.B) {
	benchPolicy(b, func() sim.Policy { return NewGemini(featService{}, featError{}) })
}

func BenchmarkRubikPolicy(b *testing.B) {
	benchPolicy(b, func() sim.Policy { return NewRubik(20) })
}

func BenchmarkPegasusPolicy(b *testing.B) {
	benchPolicy(b, func() sim.Policy { return NewPegasus() })
}

func BenchmarkPACEOraclePolicy(b *testing.B) {
	benchPolicy(b, func() sim.Policy { return NewPACEOracle() })
}
