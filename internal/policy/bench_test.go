package policy

import (
	"math/rand"
	"runtime"
	"runtime/debug"
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
		wl.Pool = append(wl.Pool, sim.PreparedQuery{Features: fv})
		wl.Add(at, sim.Draw{Base: w, Work: w, PoolIdx: int32(i)})
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
	benchPolicy(b, func() sim.Policy { return newRubik(20) })
}

func BenchmarkPegasusPolicy(b *testing.B) {
	benchPolicy(b, func() sim.Policy { return NewPegasus() })
}

func BenchmarkPACEOraclePolicy(b *testing.B) {
	benchPolicy(b, func() sim.Policy { return NewPACEOracle() })
}

// TestDVFSRunAllocsIndependentOfRequests pins the allocations of the path the
// paper is about: a whole sim.Run under each frequency-switching policy
// allocates no more often at 2 000 requests than at 1 000, so nothing on the
// per-request path (SetFreq, timers, planned boosts, the planner) allocates.
// The pins in package sim all run FixedPolicy, which never switches. The one
// allocation of slack is the engine's FIFO, which doubles with the deepest
// queue a run sees; one allocation per request would add a thousand.
//
// The collector is off while it counts: after each cycle the runtime's
// cleanup of the unique package's maps (which net/netip fills at init)
// allocates on a goroutine of its own, and AllocsPerRun counts every
// goroutine's allocations, so a cycle inside the measured runs read as two
// to eight more for the run.
func TestDVFSRunAllocsIndependentOfRequests(t *testing.T) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for name, mk := range map[string]func() sim.Policy{
		"Gemini":  func() sim.Policy { return NewGemini(featService{}, featError{}) },
		"Pegasus": func() sim.Policy { return NewPegasus() },
		"Rubik":   func() sim.Policy { return newRubik(20) },
	} {
		allocs := func(n int) float64 {
			wl := benchWL(n, 1)
			return testing.AllocsPerRun(5, func() { sim.Run(sim.DefaultConfig(), wl, mk()) })
		}
		if small, large := allocs(1000), allocs(2000); large > small+1 {
			t.Errorf("%s: sim.Run allocates %.0f times at 1 000 requests, %.0f at 2 000", name, small, large)
		}
	}
}
