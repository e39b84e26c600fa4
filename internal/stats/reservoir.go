package stats

import "math/rand"

// Reservoir keeps a uniform random sample of fixed capacity from a stream of
// observations (Vitter's algorithm R). It is used to bound the memory of
// long trace-driven runs while still computing faithful percentiles.
type Reservoir struct {
	cap  int
	seen int
	buf  []float64
	rng  *rand.Rand
}

// NewReservoir creates a reservoir sampler of the given capacity, seeded
// deterministically so experiment runs are reproducible.
func NewReservoir(capacity int, seed int64) *Reservoir {
	if capacity <= 0 {
		capacity = 1
	}
	return &Reservoir{
		cap: capacity,
		buf: make([]float64, 0, capacity),
		rng: rand.New(rand.NewSource(seed)),
	}
}

// Add offers one observation to the reservoir.
func (r *Reservoir) Add(x float64) {
	r.seen++
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, x)
		return
	}
	if j := r.rng.Intn(r.seen); j < r.cap {
		r.buf[j] = x
	}
}

// Sample returns a copy of the current sample.
func (r *Reservoir) Sample() []float64 {
	out := make([]float64, len(r.buf))
	copy(out, r.buf)
	return out
}

// Percentile computes the p-th percentile of the current sample.
func (r *Reservoir) Percentile(p float64) (float64, error) {
	return Percentile(r.buf, p)
}
