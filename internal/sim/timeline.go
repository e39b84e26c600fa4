package sim

import (
	"gemini/internal/cpu"
	"gemini/internal/stats"
	"gemini/internal/telemetry"
)

// Cluster timelines: per-core sampled series merged deterministically into
// one cluster-aggregate series.
//
// The discipline extends the span-accumulator contract: when Config.Series
// is set, RunClusterWorkers and RunTopologyWorkers give every core a private
// capture cursor (a shared sink would interleave samples nondeterministically
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

// mergeTimeseries folds the cores' captured windows (capture.timeline) into
// dst in core order, reading them in place. Sums (power, queue depth,
// in-flight, lifecycle counts) add across cores; the merged power includes
// uncoreW so the cluster row is comparable to the power cap; residency
// averages across cores (every core's window spans the same dt). Windowed
// percentiles cannot be merged from per-core percentiles, so they are
// recomputed from the union of the cores' window latencies, which each
// cursor sealed by the engine's dispatch order: a completion at exactly a
// boundary dispatches before the sampler timer, hence lands in the window
// that boundary ends, and a completion past the final boundary lands in
// none. coord, when non-nil, contributes the cap columns: throttle
// step-downs and modeled watts at the coordinator's own boundaries, mapped
// onto the enclosing sample window.
func mergeTimeseries(dst *telemetry.Timeseries, caps []capture, uncoreW float64, coord *PowerCapCoordinator) {
	if dst == nil || len(caps) == 0 {
		return
	}
	rows := make([][]telemetry.TimeseriesRow, len(caps))
	n := -1
	for c := range caps {
		rows[c] = caps[c].timeline.Rows()
		if n < 0 || len(rows[c]) < n {
			n = len(rows[c])
		}
	}
	if n <= 0 {
		return
	}

	resid := make([]float64, dst.LevelCount())
	var win []float64
	capIdx := 0
	lastCapW := 0.0
	for k := 0; k < n; k++ {
		bound := rows[0][k].TimeMs
		out := telemetry.TimeseriesRow{TimeMs: bound, PowerW: uncoreW}
		for i := range resid {
			resid[i] = 0
		}
		win = win[:0]
		for c, rs := range rows {
			r := &rs[k]
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
			win = append(win, caps[c].timeline.Latencies(k)...)
		}
		for i := range resid {
			resid[i] /= float64(len(rows))
		}
		out.Residency = resid
		if len(win) > 0 {
			// The cores' runs are sorted; their concatenation is not.
			stats.SortAscending(win)
			out.P50Ms = stats.PercentileSorted(win, 50)
			out.P95Ms = stats.PercentileSorted(win, 95)
			out.P99Ms = stats.PercentileSorted(win, 99)
		}
		if coord != nil {
			for capIdx < len(coord.seriesT) && coord.seriesT[capIdx] <= bound {
				out.CapThrottles += uint64(coord.seriesThr[capIdx])
				lastCapW = coord.seriesW[capIdx]
				capIdx++
			}
			out.CapModeledW = lastCapW
		}
		dst.Append(out)
	}
}
