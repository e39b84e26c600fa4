package sim

import (
	"slices"
	"sort"

	"gemini/internal/cpu"
	"gemini/internal/stats"
	"gemini/internal/telemetry"
)

// Cluster timelines: per-core sampled series merged deterministically into
// one cluster-aggregate series.
//
// The discipline extends the span sink's contract: when Config.Series
// is set, the cluster runner (RunTopologyWorkers, which RunClusterWorkers
// calls) gives every core a private capture cursor (a shared sink would
// interleave samples nondeterministically under workers > 1), then merges
// window-by-window in core order after every core finished. Sample boundaries are bit-identical across cores — both the
// engine's reserved timers and SampleCount multiply k·interval rather than
// accumulating — so the merge is pure column arithmetic and the sharded
// timeline export is byte-identical to the serial one under every router and
// power cap (TestTopologyTimelineWorkersIdentical, FuzzRouterEquivalence).

// SampleTimerTag is the reserved (negative) timer tag the timeline sampler
// (Config.Series) rides. The engine loop intercepts it before OnTimer, so
// no policy ever observes it. Policies keep their own timer tags
// non-negative (every in-repo policy uses tag 0); Sim.SetTimer panics on a
// negative one.
const SampleTimerTag int64 = -2

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

// timelineMerge folds the cores' captured windows (capture.timeline) into
// one cluster row per window, reading them in place. Sums (power, queue
// depth, in-flight, lifecycle counts) add in core order; the merged power
// includes uncoreW so the cluster row is comparable to the power cap;
// residency averages across cores (every core's window spans the same dt).
// Windowed percentiles cannot be merged from per-core percentiles, and the
// capture cursors compute none: they come from the union of the cores' window
// latencies, which each cursor sealed by the engine's dispatch order: a
// completion at exactly a boundary dispatches before the sampler timer, hence
// lands in the window that boundary ends, and a completion past the final
// boundary lands in none. coord, when non-nil, contributes the cap columns:
// throttle step-downs and modeled watts at the coordinator's own boundaries,
// mapped onto the enclosing sample window.
//
// Row k depends only on window k of every core and on the cap series up to
// the row's bound, so the rows are computed in independent chunks of
// mergeChunk windows (chunk), each writing only its own rows and its own
// stretch of the latency buffer; appendTo then hands the rows to the Series
// in order. A chunk walks each core's windows in turn, which reads every
// capture front to back and still adds each row's terms in core order.
type timelineMerge struct {
	caps    []capture
	uncoreW float64
	coord   *PowerCapCoordinator
	rows    []telemetry.TimeseriesRow // each Residency a stretch of one array
	lat     []float64                 // window k's latencies at lat[latOff[k]:latOff[k+1]]
	latOff  []int
	fill    []int // window k's latencies gathered so far
}

// mergeChunk is the number of windows one merge job computes.
const mergeChunk = 128

// newTimelineMerge sizes the merge of caps' windows: as many rows as the
// shortest capture has. Nil, which every method accepts, when dst is nil or
// there is nothing to merge.
func newTimelineMerge(dst *telemetry.Timeseries, caps []capture, uncoreW float64, coord *PowerCapCoordinator) *timelineMerge {
	if dst == nil || len(caps) == 0 {
		return nil
	}
	n := -1
	for c := range caps {
		if k := len(caps[c].timeline.Rows()); n < 0 || k < n {
			n = k
		}
	}
	if n <= 0 {
		return nil
	}
	m := &timelineMerge{caps: caps, uncoreW: uncoreW, coord: coord,
		rows: make([]telemetry.TimeseriesRow, n), latOff: make([]int, n+1)}
	levels := dst.LevelCount()
	resid := make([]float64, n*levels)
	for k := range m.rows {
		m.rows[k].Residency = resid[k*levels : (k+1)*levels : (k+1)*levels]
	}
	for c := range caps {
		for k := range n {
			m.latOff[k+1] += len(caps[c].timeline.Latencies(k))
		}
	}
	for k := range n {
		m.latOff[k+1] += m.latOff[k]
	}
	m.fill = slices.Clone(m.latOff[:n])
	m.lat = make([]float64, m.latOff[n])
	return m
}

// chunks returns the number of merge jobs.
func (m *timelineMerge) chunks() int {
	if m == nil {
		return 0
	}
	return (len(m.rows) + mergeChunk - 1) / mergeChunk
}

// chunk computes merged rows j·mergeChunk onwards, up to mergeChunk of them.
func (m *timelineMerge) chunk(j int) {
	lo := j * mergeChunk
	rows := m.rows[lo:min(lo+mergeChunk, len(m.rows))]
	bounds := m.caps[0].timeline.Rows() // every core's windows end at the same bounds
	for k := range rows {
		rows[k].TimeMs, rows[k].PowerW = bounds[lo+k].TimeMs, m.uncoreW
	}
	for c := range m.caps {
		tl := m.caps[c].timeline
		in := tl.Rows()[lo : lo+len(rows)]
		for k := range in {
			out, r := &rows[k], &in[k]
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
			for i := range out.Residency {
				if i < len(r.Residency) {
					out.Residency[i] += r.Residency[i]
				}
			}
			m.fill[lo+k] += copy(m.lat[m.fill[lo+k]:], tl.Latencies(lo+k))
		}
	}
	// The coordinator's boundaries up to each row's bound: its throttles in
	// (previous bound, bound], its watts at the last of them.
	var ts []float64
	capIdx := 0
	if m.coord != nil {
		ts = m.coord.seriesT
		if lo > 0 {
			prev := bounds[lo-1].TimeMs
			capIdx = sort.Search(len(ts), func(i int) bool { return ts[i] > prev })
		}
	}
	for k := range rows {
		out := &rows[k]
		for i := range out.Residency {
			out.Residency[i] /= float64(len(m.caps))
		}
		if win := m.lat[m.latOff[lo+k]:m.latOff[lo+k+1]]; len(win) > 0 {
			stats.SortAscending(win)
			out.P50Ms = stats.PercentileSorted(win, 50)
			out.P95Ms = stats.PercentileSorted(win, 95)
			out.P99Ms = stats.PercentileSorted(win, 99)
		}
		if m.coord != nil {
			for capIdx < len(ts) && ts[capIdx] <= out.TimeMs {
				out.CapThrottles += uint64(m.coord.seriesThr[capIdx])
				capIdx++
			}
			if capIdx > 0 {
				out.CapModeledW = m.coord.seriesW[capIdx-1]
			}
		}
	}
}

// appendTo appends the merged rows to dst, oldest first.
func (m *timelineMerge) appendTo(dst *telemetry.Timeseries) {
	if m == nil {
		return
	}
	for k := range m.rows {
		dst.Append(m.rows[k])
	}
}
