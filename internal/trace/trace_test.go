package trace

import (
	"math"
	"testing"
	"testing/quick"

	"gemini/internal/stats"
)

func TestGenFixedRPS(t *testing.T) {
	tr := GenFixedRPS(50, 120_000, 1)
	if tr.Len() == 0 {
		t.Fatal("no arrivals")
	}
	// Mean rate within 10% of target.
	if r := tr.MeanRPS(); math.Abs(r-50) > 5 {
		t.Errorf("mean RPS = %v, want ≈50", r)
	}
	// Ascending arrival times.
	for i := 1; i < tr.Len(); i++ {
		if tr.Arrivals[i] < tr.Arrivals[i-1] {
			t.Fatalf("arrivals not sorted at %d", i)
		}
	}
	if tr.DurationMs() > 120_000 {
		t.Errorf("arrival beyond duration: %v", tr.DurationMs())
	}
}

func TestGenPoissonDeterministic(t *testing.T) {
	a := GenFixedRPS(30, 60_000, 7)
	b := GenFixedRPS(30, 60_000, 7)
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Arrivals {
		if a.Arrivals[i] != b.Arrivals[i] {
			t.Fatalf("arrival %d differs", i)
		}
	}
}

// TestGenFixedRPSAllocsIndependentOfDuration: GenPoisson reserves room for
// the arrivals up front, so a trace four times as long (here the size of a
// ledger sweep trace, 480 RPS for 360 s, and four times that) allocates no
// more often.
func TestGenFixedRPSAllocsIndependentOfDuration(t *testing.T) {
	allocs := func(durationMs float64) float64 {
		return testing.AllocsPerRun(10, func() { GenFixedRPS(480, durationMs, 5) })
	}
	if short, long := allocs(360_000), allocs(1_440_000); long != short {
		t.Errorf("GenFixedRPS allocates %.0f times for 360 s and %.0f for 1440 s", short, long)
	}
}

func TestInterArrivalsExponentialish(t *testing.T) {
	tr := GenFixedRPS(100, 300_000, 3)
	gaps := tr.InterArrivalsMs()
	mean, _ := stats.Mean(gaps)
	// Poisson at 100 RPS: mean gap 10 ms; CV ≈ 1.
	if math.Abs(mean-10) > 1.5 {
		t.Errorf("mean gap = %v ms, want ≈10", mean)
	}
	v, _ := stats.Variance(gaps)
	cv := math.Sqrt(v) / mean
	if cv < 0.8 || cv > 1.2 {
		t.Errorf("coefficient of variation = %v, want ≈1", cv)
	}
}

func TestRPSSeries(t *testing.T) {
	tr := &Trace{Arrivals: []float64{100, 200, 1100, 1200, 1300}}
	s := tr.RPSSeries(1000, 2000)
	if len(s) != 2 {
		t.Fatalf("series len = %d", len(s))
	}
	if s[0] != 2 || s[1] != 3 {
		t.Errorf("series = %v, want [2 3]", s)
	}
}

func TestEmptyTrace(t *testing.T) {
	tr := &Trace{}
	if tr.DurationMs() != 0 || tr.MeanRPS() != 0 {
		t.Error("empty trace stats nonzero")
	}
	if tr.InterArrivalsMs() != nil {
		t.Error("empty trace inter-arrivals")
	}
}

// Fig. 1b shape: the long Wikipedia trace's normalized hourly RPS must span
// roughly 4x between min and max and show a diurnal pattern.
func TestWikipediaLongShape(t *testing.T) {
	tr := GenWikipediaLong(6, 150, 5)
	hourly := tr.RPSSeries(hourMs, 150*hourMs)
	if len(hourly) != 150 {
		t.Fatalf("hourly buckets = %d", len(hourly))
	}
	mn, _ := stats.Min(hourly)
	mx, _ := stats.Max(hourly)
	if mn <= 0 {
		t.Fatalf("an hour with zero arrivals (rate too low for the test)")
	}
	ratio := mx / mn
	if ratio < 2.5 || ratio > 8 {
		t.Errorf("normalized RPS range = %.1fx, want ≈4x", ratio)
	}
}

// The per-second RPS of the eval Wikipedia trace must vary substantially
// (the paper's argument for per-query management, Fig. 1b bottom-left).
func TestWikipediaEvalPerSecondVariability(t *testing.T) {
	tr := GenEvalTrace("wiki", 60, 200_000, 9)
	sec := tr.RPSSeries(1000, 200_000)
	mean, _ := stats.Mean(sec)
	v, _ := stats.Variance(sec)
	cv := math.Sqrt(v) / mean
	if cv < 0.15 {
		t.Errorf("per-second CV = %v, want > 0.15", cv)
	}
}

func TestEvalTraceMeanRates(t *testing.T) {
	for _, name := range []string{"wiki", "lucene", "trec"} { // Figs. 12–14
		tr := GenEvalTrace(name, 60, 1_000_000, 11)
		got := tr.MeanRPS()
		if got < 30 || got > 90 {
			t.Errorf("%s: mean RPS = %v, want ≈60", name, got)
		}
	}
}

func TestEvalTraceDistinctShapes(t *testing.T) {
	wiki := GenEvalTrace("wiki", 60, 1_000_000, 2)
	lucene := GenEvalTrace("lucene", 60, 1_000_000, 2)
	trec := GenEvalTrace("trec", 60, 1_000_000, 2)

	cv := func(tr *Trace) float64 {
		s := tr.RPSSeries(10_000, 1_000_000)
		mean, _ := stats.Mean(s)
		v, _ := stats.Variance(s)
		return math.Sqrt(v) / mean
	}
	cvW, cvL, cvT := cv(wiki), cv(lucene), cv(trec)
	// Lucene's plateau switching makes it the burstiest at the 10 s scale;
	// all three must differ meaningfully from one another.
	if cvL <= cvW {
		t.Errorf("lucene CV %v not above wiki CV %v", cvL, cvW)
	}
	if cvT <= 0.1 {
		t.Errorf("trec CV %v too flat", cvT)
	}
}

func TestGenEvalTraceUnknownName(t *testing.T) {
	tr := GenEvalTrace("nope", 40, 100_000, 1)
	if got := tr.MeanRPS(); math.Abs(got-40) > 8 {
		t.Errorf("fallback constant-rate trace RPS = %v", got)
	}
}

func TestHashNoiseBounds(t *testing.T) {
	f := func(i int64, salt uint64) bool {
		v := hashNoise(i, 0.3, salt)
		return v >= 0.7 && v <= 1.3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashNoiseDeterministicAndVaried(t *testing.T) {
	if hashNoise(5, 0.2, 1) != hashNoise(5, 0.2, 1) {
		t.Error("hashNoise not deterministic")
	}
	seen := map[float64]bool{}
	for i := int64(0); i < 100; i++ {
		seen[hashNoise(i, 0.2, 1)] = true
	}
	if len(seen) < 50 {
		t.Errorf("hashNoise not varied: %d distinct of 100", len(seen))
	}
}

// Property: thinning never exceeds the declared max rate by construction —
// the mean RPS of any generated trace is below maxRPS.
func TestGenPoissonRateBound(t *testing.T) {
	f := func(seed int64) bool {
		tr := GenEvalTrace("trec", 50, 200_000, seed)
		return tr.MeanRPS() <= 50*3.2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}
