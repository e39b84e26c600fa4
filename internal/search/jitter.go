package search

import (
	"math"
	"math/rand"

	"gemini/internal/cpu"
)

// Jitter models why measured service times are not perfectly predictable
// from query features (the paper's central premise, §II-B): cache and OS
// effects add a per-execution random component, and there are systematic,
// query-dependent components the engine's counters do not capture. Two
// systematic terms are modeled:
//
//   - a smooth ±BiasAmp modulation (memory locality of a term's postings);
//   - a sparse "spike": a minority of queries (pathological access patterns,
//     e.g. pruning-hostile score distributions) run SpikeAmp slower, again
//     deterministically in the features.
//
// The spike is what gives the paper's Fig. 8 error structure: the per-ms
// bucketized latency classifier under-fits the minority class, leaving large
// feature-predictable residuals that the dedicated error NN (§IV-C) learns —
// and that a moving average (Gemini-α) can only smear across all queries.
// The random component bounds any predictor's accuracy below 100%.
type Jitter struct {
	BiasAmp    float64 // amplitude of the smooth systematic component
	NoiseSigma float64 // std-dev of the random component (fraction of base)
	SpikeAmp   float64 // slowdown of spike-class queries (fraction of base)
	// SpikeMaxLen restricts spikes to queries whose longest posting list is
	// below this bound: giant streaming scans are bandwidth-bound and
	// predictable, while pruning-hostile behavior hits mid-size lists.
	SpikeMaxLen float64
}

// DefaultJitter returns the configuration used by all experiments, tuned so
// the latency NN classifier lands near the paper's 89% (±1 ms) accuracy and
// the error NN near 85%.
func DefaultJitter() *Jitter {
	return &Jitter{BiasAmp: 0.10, NoiseSigma: 0.035, SpikeAmp: 0.40, SpikeMaxLen: 5000}
}

// Bias returns the deterministic systematic fraction for a query with the
// given features (in [-BiasAmp, BiasAmp+SpikeAmp]).
func (j *Jitter) Bias(fv FeatureVector) float64 {
	// A smooth, feature-dependent phase: hard for a bucketized classifier
	// to absorb fully, easy for a dedicated residual model to pick up.
	phase := 0.9*math.Log1p(fv[FeatPostingListLength]) +
		0.7*fv[FeatIDF] +
		0.45*math.Log1p(fv[FeatDocsEverInTopK]) +
		0.25*fv[FeatQueryLength]
	b := j.BiasAmp * math.Sin(phase)
	if j.IsSpike(fv) {
		b += j.SpikeAmp
	}
	return b
}

// IsSpike reports whether the query belongs to the deterministic slow
// minority (≈14% of the feature-phase space).
func (j *Jitter) IsSpike(fv FeatureVector) bool {
	if j.SpikeMaxLen > 0 && fv[FeatPostingListLength] >= j.SpikeMaxLen {
		return false
	}
	phase2 := 1.7*math.Log1p(fv[FeatVariance]) +
		0.9*fv[FeatQueryLength] +
		0.51*math.Log1p(fv[FeatPostingListLength]) +
		0.33*math.Log1p(fv[FeatDocsIn5PctOfKthScore])
	return math.Sin(phase2) > 0.9
}

// MeasuredWork converts the deterministic base work of an execution into a
// "measured" amount of work including systematic bias and random noise.
// Noise is clamped to ±3σ; the result is never below 10% of base.
func (j *Jitter) MeasuredWork(base cpu.Work, fv FeatureVector, rng *rand.Rand) cpu.Work {
	return j.MeasuredWorkBias(base, j.Bias(fv), rng)
}

// MeasuredWorkBias is MeasuredWork for a caller that already holds
// bias = j.Bias(fv): the per-execution part, one noise draw and
// base·(1 + bias + noise). Bias is a pure function of the query, so a
// workload builder evaluates it once per pool query and pays only this per
// arrival; MeasuredWork goes through here too, which keeps the two
// bit-identical.
//
//gemini:hotpath
func (j *Jitter) MeasuredWorkBias(base cpu.Work, bias float64, rng *rand.Rand) cpu.Work {
	//gemini:allow hotpath -- the caller's seeded stream; NormFloat64 on a rand.Rand does not allocate
	noise := j.NoiseSigma * rng.NormFloat64()
	if noise > 3*j.NoiseSigma {
		noise = 3 * j.NoiseSigma
	}
	if noise < -3*j.NoiseSigma {
		noise = -3 * j.NoiseSigma
	}
	m := float64(base) * (1 + bias + noise)
	if m < 0.1*float64(base) {
		m = 0.1 * float64(base)
	}
	return cpu.Work(m)
}
