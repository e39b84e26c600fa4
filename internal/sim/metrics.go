package sim

import (
	"gemini/internal/cpu"
	"gemini/internal/stats"
)

// Result collects the metrics of one simulation run.
type Result struct {
	Policy string

	Total      int
	Completed  int
	Dropped    int
	Violations int // late completions (drops are counted separately: the
	// aggregator ignores stragglers, so the paper treats drops as harmless
	// to quality, §III-A)

	// Latencies holds the completion latency of every completed request in
	// ms; nil when the workload was empty.
	//
	// Contract: sim.Run and a one-shard cluster (RunClusterWorkers, or a
	// topology with Shards == 1) sort every Latencies they return ascending,
	// whatever order completions were recorded in; TailLatencyMs and every
	// percentile consumer (reports, CDF figures) rely on this. A multi-shard
	// topology's per-core Latencies keep completion order, the engine's
	// dispatch order and as deterministic: its query latencies are the
	// stragglers it merges from the records, so no reader needs them sorted.
	Latencies []float64

	// Events counts dispatched engine events (completions, planned changes,
	// ceiling steps, arrivals, timers) — the denominator of the events/sec
	// throughput metric the engine benchmarks report.
	Events uint64

	// Core-level energy metrics.
	EnergyMJ    float64
	AvgCorePowW float64
	Utilization float64
	Transitions int
	DurationMs  float64

	// Requests is the run's record of every request it simulated, in
	// arrival order, with its outcome. A cluster run drops its cores'
	// records once it has merged them.
	Requests []Request

	// FreqTrace is the executed frequency plan (when
	// Config.RecordFreqTrace is set): piecewise-constant segments in time
	// order, adjacent segments differing in frequency or activity.
	FreqTrace []FreqSegment
}

// newResult holds the run's records and sizes Latencies for every request
// completing, so recording one never grows it.
func newResult(policy string, reqs []Request) *Result {
	res := &Result{Policy: policy, Total: len(reqs), Requests: reqs}
	if n := len(reqs); n > 0 {
		res.Latencies = make([]float64, 0, n)
	}
	return res
}

func (r *Result) recordCompletion(req *Request) {
	r.Completed++
	if req.Violated() {
		r.Violations++
	}
	r.Latencies = append(r.Latencies, req.LatencyMs())
}

func (r *Result) recordDrop(req *Request) {
	r.Dropped++
}

// seal finalizes the result: it fixes the energy metrics and establishes
// the Latencies sorted-ascending contract (see the field comment) no matter
// what order completions were recorded in.
func (r *Result) seal(acc *cpu.EnergyAccumulator, transitions int, durationMs float64) {
	r.settle(acc, transitions, durationMs)
	stats.SortAscending(r.Latencies)
}

// settle fixes the energy metrics and leaves Latencies in completion order:
// seal for a multi-shard topology's core.
func (r *Result) settle(acc *cpu.EnergyAccumulator, transitions int, durationMs float64) {
	r.EnergyMJ = acc.EnergyMJ()
	r.AvgCorePowW = acc.AvgPowerW()
	r.Utilization = acc.Utilization()
	r.Transitions = transitions
	r.DurationMs = durationMs
}

// TailLatencyMs returns the p-th percentile completion latency (0 if none).
// It requires sorted Latencies: a result of sim.Run or of a one-shard
// cluster, not a multi-shard topology's per-core result (see the field
// contract).
func (r *Result) TailLatencyMs(p float64) float64 {
	if len(r.Latencies) == 0 {
		return 0
	}
	return stats.PercentileSorted(r.Latencies, p)
}

// MeanLatencyMs returns the mean completion latency.
func (r *Result) MeanLatencyMs() float64 {
	m, err := stats.Mean(r.Latencies)
	if err != nil {
		return 0
	}
	return m
}

// ViolationRate returns the fraction of all requests that completed after
// their deadline. Dropped requests are excluded — see Dropped/DropRate.
func (r *Result) ViolationRate() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Violations) / float64(r.Total)
}

// DropRate returns the fraction of all requests that were dropped.
func (r *Result) DropRate() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Dropped) / float64(r.Total)
}

// SocketPowerW extrapolates the measured single-ISN core power to the
// paper's 12-ISN socket: uncore + Cores × core average. The paper's 12 ISNs
// receive the same query stream, so a single core is an unbiased sample.
func (r *Result) SocketPowerW(m *cpu.PowerModel) float64 {
	return m.UncoreW + float64(m.Cores)*r.AvgCorePowW
}

// PowerSavingVs returns the fractional socket-power saving of r relative to
// the given baseline result.
func (r *Result) PowerSavingVs(base *Result, m *cpu.PowerModel) float64 {
	pb := base.SocketPowerW(m)
	if pb == 0 {
		return 0
	}
	return 1 - r.SocketPowerW(m)/pb
}

// FreqSegment is one piecewise-constant stretch of the executed plan.
type FreqSegment struct {
	StartMs, EndMs float64
	Freq           cpu.Freq
	Busy           bool
}

// DurationMs returns the segment length.
func (f FreqSegment) DurationMs() float64 { return f.EndMs - f.StartMs }
