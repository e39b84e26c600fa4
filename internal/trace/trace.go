// Package trace models the query-arrival workloads of the paper's
// evaluation: the Wikipedia trace with its diurnal and day-of-week request
// rate pattern plus strong per-second variability (Fig. 1b), the burstier
// Lucene nightly-benchmark trace, and the heavy-tailed TREC Million Query
// Track trace. Arrivals are generated as non-homogeneous Poisson processes
// by thinning, deterministically for a given seed.
package trace

import (
	"math"
	"math/rand"
)

// Trace is a named sequence of absolute arrival times in milliseconds,
// ascending.
type Trace struct {
	Name     string
	Arrivals []float64
}

// Len returns the number of arrivals.
func (t *Trace) Len() int { return len(t.Arrivals) }

// DurationMs returns the time of the last arrival (0 if empty).
func (t *Trace) DurationMs() float64 {
	if len(t.Arrivals) == 0 {
		return 0
	}
	return t.Arrivals[len(t.Arrivals)-1]
}

// MeanRPS returns the average request rate over the trace duration.
func (t *Trace) MeanRPS() float64 {
	d := t.DurationMs()
	if d == 0 {
		return 0
	}
	return float64(len(t.Arrivals)) / (d / 1000)
}

// InterArrivalsMs returns the gaps between consecutive arrivals.
func (t *Trace) InterArrivalsMs() []float64 {
	if len(t.Arrivals) < 2 {
		return nil
	}
	out := make([]float64, len(t.Arrivals)-1)
	for i := 1; i < len(t.Arrivals); i++ {
		out[i-1] = t.Arrivals[i] - t.Arrivals[i-1]
	}
	return out
}

// RPSSeries buckets arrivals into windows of windowMs and returns the
// request rate (in RPS) of each window across the full duration.
func (t *Trace) RPSSeries(windowMs, durationMs float64) []float64 {
	n := int(math.Ceil(durationMs / windowMs))
	if n <= 0 {
		return nil
	}
	counts := make([]float64, n)
	for _, a := range t.Arrivals {
		i := int(a / windowMs)
		if i >= 0 && i < n {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= windowMs / 1000
	}
	return counts
}

// RateFunc is an instantaneous arrival rate in requests/second at time tMs.
type RateFunc func(tMs float64) float64

// GenPoisson draws a non-homogeneous Poisson process on [0, durationMs) with
// the given rate function via Lewis-Shedler thinning. maxRPS must bound the
// rate function over the interval.
func GenPoisson(rate RateFunc, maxRPS, durationMs float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	// The candidates are a Poisson count of mean mu, and arrivals a thinned
	// subset of them: room for five standard deviations past mu means the
	// append below all but never grows the slice.
	var arrivals []float64
	if mu := durationMs * maxRPS / 1000; mu > 0 && mu < math.MaxInt32 {
		arrivals = make([]float64, 0, int(math.Ceil(mu+5*math.Sqrt(mu))))
	}
	t := 0.0
	meanGapMs := 1000 / maxRPS
	for {
		t += rng.ExpFloat64() * meanGapMs
		if t >= durationMs {
			break
		}
		if rng.Float64() <= rate(t)/maxRPS {
			arrivals = append(arrivals, t)
		}
	}
	return arrivals
}

// GenFixedRPS draws a homogeneous Poisson process at the given rate — the
// synthetic constant-load used by the Fig. 10/11 RPS sweep.
func GenFixedRPS(rps, durationMs float64, seed int64) *Trace {
	arr := GenPoisson(func(float64) float64 { return rps }, rps, durationMs, seed)
	return &Trace{Name: "fixed", Arrivals: arr}
}

// hashNoise derives a deterministic multiplicative factor in
// [1-amp, 1+amp] for integer bucket i — the per-second rate jitter of
// Fig. 1b's bottom-left panel, reproducible without carrying RNG state in
// the rate function.
func hashNoise(i int64, amp float64, salt uint64) float64 {
	x := uint64(i)*0x9E3779B97F4A7C15 + salt
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	u := float64(x%1_000_000) / 1_000_000 // uniform [0,1)
	return 1 - amp + 2*amp*u
}
