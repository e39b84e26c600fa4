package sim

import (
	"gemini/internal/cpu"
)

// Shared benchmark scaffolding. The repo's benchmarks — the single-ISN family
// and BenchmarkClusterLargeSharded in internal/sim/bench_test.go, the
// whole-stack benchmarks in the root bench_test.go — and the allocation pins
// of TestRunAllocationPins all build their synthetic request streams and
// no-op policies here, so the workload shape is defined exactly once and
// every events/sec number is comparable across packages.

// BenchWorkload builds a Poisson-ish stream of n requests: exponential
// inter-arrivals at 40 QPS and uniform 2–22 ms service at the default
// frequency, all inside a 40 ms budget. Deterministic per (n, seed).
func BenchWorkload(n int, seed int64) *Workload {
	return BenchWorkloadRate(n, seed, 25)
}

// BenchWorkloadRate is BenchWorkload with an explicit mean inter-arrival gap
// (ms) so cluster benchmarks can scale offered load with the core count.
// Draws come from the seed's workload stream — bit-compatible with the
// historical shared generator (see PartitionedRNG).
func BenchWorkloadRate(n int, seed int64, meanGapMs float64) *Workload {
	rng := NewPartitionedRNG(seed).Workload()
	wl := &Workload{BudgetMs: 40}
	at := 0.0
	for i := 0; i < n; i++ {
		at += rng.ExpFloat64() * meanGapMs
		w := cpu.Work((2 + rng.Float64()*20) * 2.7)
		wl.Add(at, Draw{Base: w, Work: w})
	}
	wl.DurationMs = at + 100
	return wl
}

// FixedPolicy pins one frequency at Init and never changes it — the
// canonical no-op policy for benchmarks and engine-overhead measurements
// (its per-event cost is a single virtual call).
type FixedPolicy struct{ F cpu.Freq }

func (p *FixedPolicy) Name() string               { return "fixed" }
func (p *FixedPolicy) Init(s *Sim)                { s.SetFreq(p.F) }
func (p *FixedPolicy) OnArrival(*Sim, *Request)   {}
func (p *FixedPolicy) OnStart(*Sim, *Request)     {}
func (p *FixedPolicy) OnDeparture(*Sim, *Request) {}
func (p *FixedPolicy) OnTimer(*Sim, int64)        {}
