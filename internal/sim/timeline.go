package sim

import (
	"sort"

	"gemini/internal/cpu"
	"gemini/internal/stats"
	"gemini/internal/telemetry"
)

// Cluster timelines: per-core sampled series merged deterministically into
// one cluster-aggregate series.
//
// The discipline extends the span-accumulator contract: when Config.Series
// is set, RunClusterWorkers and RunTopologyWorkers give every core a private
// Timeseries (shared sinks would interleave samples nondeterministically
// under workers > 1), then merge window-by-window in core order after every
// core finished. Sample boundaries are bit-identical across cores — both the
// engine's reserved timers and SampleCount multiply k·interval rather than
// accumulating — so the merge is pure column arithmetic and the sharded
// timeline export is byte-identical to the serial one under every router and
// power cap (TestTopologyTimelineWorkersIdentical, FuzzRouterEquivalence).

// NewRunTimeseries sizes a telemetry.Timeseries for one run: residency levels
// from the ladder (DefaultLadder when nil) and capacity for every sample
// boundary of a durationMs run at intervalMs, so nothing is ever evicted.
func NewRunTimeseries(ladder *cpu.Ladder, durationMs, intervalMs float64) *telemetry.Timeseries {
	if ladder == nil {
		ladder = cpu.DefaultLadder()
	}
	n := telemetry.SampleCount(durationMs, intervalMs)
	if n < 1 {
		n = 1
	}
	return telemetry.NewTimeseries(intervalMs, ladder.GHz(), n)
}

// coreSeries builds the private per-core capture series matching the
// caller's aggregate series.
func coreSeries(proto *telemetry.Timeseries, durationMs float64) *telemetry.Timeseries {
	iv := proto.IntervalMs()
	n := telemetry.SampleCount(durationMs, iv)
	if n < 1 {
		n = 1
	}
	return telemetry.NewTimeseries(iv, proto.FreqsGHz(), n)
}

// mergeTimeseries folds the per-core capture series into dst in core order.
// Sums (power, queue depth, in-flight, lifecycle counts) add across cores;
// the merged power includes uncoreW so the cluster row is comparable to the
// power cap; residency averages across cores (every core's window spans the
// same dt). Windowed percentiles cannot be merged from per-core percentiles,
// so they are recomputed from the parts' completed requests, bucketed by the
// same boundary rule the engine dispatch order implies (a completion at
// exactly a boundary dispatches before the sampler timer, hence lands in the
// window that boundary ends). coord, when non-nil, contributes the cap
// columns: throttle step-downs and modeled watts at the coordinator's own
// boundaries, mapped onto the enclosing sample window.
func mergeTimeseries(dst *telemetry.Timeseries, perCore []*telemetry.Timeseries, parts []*Workload, uncoreW float64, coord *PowerCapCoordinator) {
	if dst == nil || len(perCore) == 0 {
		return
	}
	rows := make([][]telemetry.TimeseriesRow, len(perCore))
	n := -1
	for c, ts := range perCore {
		rows[c] = ts.Rows()
		if n < 0 || len(rows[c]) < n {
			n = len(rows[c])
		}
	}
	if n <= 0 {
		return
	}
	bounds := make([]float64, n)
	for k := range bounds {
		bounds[k] = rows[0][k].TimeMs
	}

	// Latency windows, walked in core order: first boundary >= FinishMs.
	// Completions past the final boundary were never sampled on any core.
	wins := make([][]float64, n)
	for _, part := range parts {
		for _, r := range part.Requests {
			if !r.Done || r.Dropped {
				continue
			}
			k := sort.SearchFloat64s(bounds, r.FinishMs)
			if k >= n {
				continue
			}
			wins[k] = append(wins[k], r.FinishMs-r.ArrivalMs)
		}
	}

	resid := make([]float64, dst.LevelCount())
	capIdx := 0
	lastCapW := 0.0
	for k := 0; k < n; k++ {
		out := telemetry.TimeseriesRow{TimeMs: bounds[k], PowerW: uncoreW}
		for i := range resid {
			resid[i] = 0
		}
		for _, rs := range rows {
			r := rs[k]
			out.PowerW += r.PowerW
			out.QueueDepth += r.QueueDepth
			out.InFlight += r.InFlight
			out.Arrivals += r.Arrivals
			out.Completions += r.Completions
			out.Drops += r.Drops
			out.SLOViolations += r.SLOViolations
			// Per-core high-water marks sum: an upper bound on the
			// cluster-wide instantaneous peak (cores peak at different
			// instants), consistent with QueueDepth summing above.
			out.QueueHighWater += r.QueueHighWater
			// Runtime self-telemetry is zero in simulator rows; summing
			// keeps the merge total even if a producer ever sets it.
			out.Goroutines += r.Goroutines
			out.GCPauseMs += r.GCPauseMs
			out.HeapDeltaBytes += r.HeapDeltaBytes
			for i := range resid {
				if i < len(r.Residency) {
					resid[i] += r.Residency[i]
				}
			}
		}
		for i := range resid {
			resid[i] /= float64(len(rows))
		}
		out.Residency = resid
		if len(wins[k]) > 0 {
			sort.Float64s(wins[k])
			out.P50Ms = stats.PercentileSorted(wins[k], 50)
			out.P95Ms = stats.PercentileSorted(wins[k], 95)
			out.P99Ms = stats.PercentileSorted(wins[k], 99)
		}
		if coord != nil {
			for capIdx < len(coord.seriesT) && coord.seriesT[capIdx] <= bounds[k] {
				out.CapThrottles += uint64(coord.seriesThr[capIdx])
				lastCapW = coord.seriesW[capIdx]
				capIdx++
			}
			out.CapModeledW = lastCapW
		}
		dst.Append(out)
	}
}
