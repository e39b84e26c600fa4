package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"gemini/internal/stats"
)

// Time-series telemetry: fixed-interval samples of the quantities the
// cumulative counters and per-request traces cannot show evolving — modeled
// watts, frequency residency, queue depth, arrival/completion rates, cap
// throttling, and windowed tail latency. The same row schema serves three
// producers: the simulator's reserved-timer sampler (simulated time), the
// cluster runners' deterministic core-order merge, and the live listeners'
// wall-clock ticker behind /debug/timeline.
//
// The storage discipline mirrors the decision tracer: one preallocated ring
// of rows, Append copies values into existing capacity, and a disabled
// sampler is a nil pointer costing the engine one pointer test per lifecycle
// event and zero allocations (TestTimeseriesDisabledAddsNoAllocsPerRequest).

// TimeseriesRow is one sample: the state of a core (or a cluster aggregate)
// over the window ending at TimeMs.
type TimeseriesRow struct {
	// TimeMs is the window's end boundary (ms since run start).
	TimeMs float64 `json:"time_ms"`
	// PowerW is the modeled average power over the window (core power for a
	// single-core run; uncore plus every core for a cluster merge).
	PowerW float64 `json:"power_watts"`
	// QueueDepth and InFlight are instantaneous at the boundary: requests
	// queued (including the executing head) and requests executing.
	QueueDepth float64 `json:"queue_depth"`
	InFlight   float64 `json:"in_flight"`
	// Arrivals, Completions, Drops count lifecycle events inside the window.
	Arrivals    uint64 `json:"arrivals"`
	Completions uint64 `json:"completions"`
	Drops       uint64 `json:"drops"`
	// CapThrottles counts power-cap ceiling step-downs applied at coordinator
	// boundaries inside the window; CapModeledW is the coordinator's modeled
	// cluster watts at its last boundary at or before TimeMs (zero when
	// uncapped or before the first boundary).
	CapThrottles uint64  `json:"cap_throttles"`
	CapModeledW  float64 `json:"cap_modeled_watts"`
	// P50Ms/P95Ms/P99Ms are percentiles of the latencies of requests that
	// completed inside the window (zero when none did).
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	// SLOViolations counts in-window completions whose latency exceeded the
	// producer's SLO deadline (zero when no deadline is configured). Always
	// <= Completions; drops burn budget separately via Drops.
	SLOViolations uint64 `json:"slo_violations"`
	// QueueHighWater is the deepest queue observed inside the window — the
	// saturation signal the boundary-instant QueueDepth smooths away. In a
	// cluster merge it is the sum of per-core high-water marks (an upper
	// bound on the cluster-wide instantaneous peak).
	QueueHighWater float64 `json:"queue_high_water"`
	// Goroutines, GCPauseMs, HeapDeltaBytes are runtime self-telemetry from
	// the live wall-clock samplers: goroutine count at the boundary, GC
	// pause time accumulated inside the window, and the heap-alloc delta
	// across it. Always zero in simulator rows.
	Goroutines     float64 `json:"goroutines"`
	GCPauseMs      float64 `json:"gc_pause_ms"`
	HeapDeltaBytes float64 `json:"heap_delta_bytes"`
	// Residency is the fraction of the window spent at each ladder level,
	// index-aligned with the series' FreqsGHz (averaged across cores in a
	// cluster merge).
	Residency []float64 `json:"residency"`
}

// Timeseries is a bounded ring of TimeseriesRows. All methods are safe for
// concurrent use and nil-safe; Append is allocation-free (the Residency slice
// is copied into flat preallocated storage, never retained).
type Timeseries struct {
	mu         sync.Mutex
	intervalMs float64
	freqs      []float64
	rows       ring[TimeseriesRow] // a stored row's Residency is its slot's stretch of resid
	resid      []float64           // capacity × len(freqs), flattened
}

// NewTimeseries creates a sampler ring. intervalMs is the sample interval,
// freqsGHz the frequency-ladder levels residency is tracked over (may be
// empty for producers with no DVFS model), capacity the row count retained
// (older rows are evicted). Invalid parameters return nil, which every method
// accepts.
func NewTimeseries(intervalMs float64, freqsGHz []float64, capacity int) *Timeseries {
	if intervalMs <= 0 || capacity < 1 {
		return nil
	}
	fs := make([]float64, len(freqsGHz))
	copy(fs, freqsGHz)
	return &Timeseries{
		intervalMs: intervalMs,
		freqs:      fs,
		rows:       makeRing[TimeseriesRow](capacity),
		resid:      make([]float64, capacity*len(fs)),
	}
}

// IntervalMs returns the sample interval (0 for a nil series).
func (t *Timeseries) IntervalMs() float64 {
	if t == nil {
		return 0
	}
	return t.intervalMs
}

// FreqsGHz returns a copy of the residency frequency levels.
func (t *Timeseries) FreqsGHz() []float64 {
	if t == nil {
		return nil
	}
	out := make([]float64, len(t.freqs))
	copy(out, t.freqs)
	return out
}

// LevelCount returns the number of residency levels.
func (t *Timeseries) LevelCount() int {
	if t == nil {
		return 0
	}
	return len(t.freqs)
}

// Len returns the number of retained rows.
func (t *Timeseries) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rows.n
}

// Total returns the number of rows ever appended, evicted ones included.
func (t *Timeseries) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rows.total
}

// Append records one row, evicting the oldest when the ring is full. The
// row's Residency must have exactly LevelCount entries (shorter slices
// zero-fill); the slice is copied, never retained. Allocation-free.
func (t *Timeseries) Append(row TimeseriesRow) {
	if t == nil {
		return
	}
	t.mu.Lock()
	i := t.rows.push(&row)
	lv := len(t.freqs)
	dst := t.resid[i*lv : (i+1)*lv]
	clear(dst[copy(dst, row.Residency):]) // a shorter Residency zero-fills
	t.rows.slots[i].Residency = dst
	t.mu.Unlock()
}

// Rows returns every retained row, oldest first.
func (t *Timeseries) Rows() []TimeseriesRow {
	return t.Snapshot(0)
}

// Snapshot returns the most recent n rows, oldest first (n <= 0 returns
// every retained row). The rows own their Residency slices, which share one
// backing array: two allocations per call, whatever the row count.
func (t *Timeseries) Snapshot(n int) []TimeseriesRow {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.rows.snapshot(n)
	lv := len(t.freqs)
	resid := make([]float64, len(out)*lv)
	for k := range out {
		r := resid[k*lv : (k+1)*lv : (k+1)*lv]
		copy(r, out[k].Residency)
		out[k].Residency = r
	}
	return out
}

// WriteJSONL dumps the retained rows, oldest first, as JSON lines — the
// geminisim cell -timeline export. Byte-stable for identical row contents, which
// is what the serial-vs-sharded identity smoke compares.
func (t *Timeseries) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, row := range t.Rows() {
		if err := enc.Encode(&row); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV dumps the retained rows as CSV with a header; residency levels
// become one resid_<GHz> column each.
func (t *Timeseries) WriteCSV(w io.Writer) error {
	if t == nil {
		return nil
	}
	cols := []string{"time_ms", "power_watts", "queue_depth", "in_flight",
		"arrivals", "completions", "drops", "cap_throttles", "cap_modeled_watts",
		"p50_ms", "p95_ms", "p99_ms", "slo_violations", "queue_high_water",
		"goroutines", "gc_pause_ms", "heap_delta_bytes"}
	for _, f := range t.FreqsGHz() {
		cols = append(cols, "resid_"+strconv.FormatFloat(f, 'g', -1, 64))
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for _, row := range t.Rows() {
		vals := []string{
			fcsv(row.TimeMs), fcsv(row.PowerW), fcsv(row.QueueDepth), fcsv(row.InFlight),
			strconv.FormatUint(row.Arrivals, 10), strconv.FormatUint(row.Completions, 10),
			strconv.FormatUint(row.Drops, 10), strconv.FormatUint(row.CapThrottles, 10),
			fcsv(row.CapModeledW), fcsv(row.P50Ms), fcsv(row.P95Ms), fcsv(row.P99Ms),
			strconv.FormatUint(row.SLOViolations, 10), fcsv(row.QueueHighWater),
			fcsv(row.Goroutines), fcsv(row.GCPauseMs), fcsv(row.HeapDeltaBytes),
		}
		for _, r := range row.Residency {
			vals = append(vals, fcsv(r))
		}
		if _, err := fmt.Fprintln(w, strings.Join(vals, ",")); err != nil {
			return err
		}
	}
	return nil
}

func fcsv(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// SampleCount returns the number of sample boundaries a run of durationMs
// produces at intervalMs: boundaries sit at k·interval for k = 1, 2, …, with
// the final boundary clamped to exactly durationMs (a partial last window).
// Boundary math multiplies rather than accumulates so every producer —
// engine timers, cluster merges, tests — lands on bit-identical timestamps.
func SampleCount(durationMs, intervalMs float64) int {
	if durationMs <= 0 || intervalMs <= 0 {
		return 0
	}
	k := int(durationMs / intervalMs)
	if float64(k)*intervalMs < durationMs {
		k++
	}
	if k < 1 {
		k = 1
	}
	return k
}

// sampleBoundary returns the k-th (1-based) boundary, clamped to the horizon.
func sampleBoundary(k int, intervalMs, durationMs float64) float64 {
	b := float64(k) * intervalMs
	if b > durationMs {
		b = durationMs
	}
	return b
}

// SampleCursor is one run's sampling state: the window accumulators a
// producer feeds between boundaries and drains into the Timeseries at each
// boundary. It is the only window accumulator: the simulator's reserved
// timer and the live listeners' wall-clock ticker both seal rows through
// Sample, so the carry-over, residency and percentile rules exist once. It
// lives in package telemetry — not sim — because the live listeners in
// package server use it too. Like the decision tracer it is reached through
// a pointer that is nil when the sink is off: every engine-side touch sits
// under `if s.tsc != nil`.
//
// A cursor opened by CaptureRun keeps its sealed rows, and each row's
// latencies, in memory instead of appending them to a Timeseries: a merge of
// several runs' windows reads them in place (Rows, Latencies) and computes
// the percentiles the rows leave zero.
//
// All methods are allocation-free except OnCompletion's amortized window
// growth (sampling enabled implies the window buffer is part of the
// contract); a capture cursor is presized so that it never grows. A
// SampleCursor takes no locks: it is single-run state, touched by one
// goroutine or under its owner's lock.
type SampleCursor struct {
	ts         *Timeseries // nil for a capture cursor
	intervalMs float64
	durationMs float64

	k      int     // boundaries sampled so far
	nextAt float64 // next boundary, -1 once the horizon boundary was sampled

	lastMs       float64
	lastEnergyMJ float64

	// Residency is charged from level-switch times: resid holds the ms each
	// level held this window up to switchMs, and level has held since then.
	level                        int // current ladder level, -1 with no levels
	switchMs                     float64
	arrivals, completions, drops uint64
	resid                        []float64

	// lat holds completed latencies. A live cursor empties it at every
	// boundary; a capture cursor keeps each sealed window, unsorted, with its
	// end offset in latEnd, and the open window after the last of them.
	lat []float64

	// Capture cursor only: the sealed rows, their Residency slices cut from
	// rowResid.
	rows     []TimeseriesRow
	rowResid []float64
	latEnd   []int

	// SLO classification and queue saturation (zero-valued when unused).
	sloDeadlineMs float64 // 0 = no classification
	sloViolations uint64
	queueHW       float64 // deepest queue seen this window
}

// StartRun opens a sampling cursor for one run over [0, durationMs]; a live
// producer with no horizon passes +Inf. Returns nil — a disabled cursor — for
// a nil series or a degenerate horizon.
func (t *Timeseries) StartRun(durationMs float64) *SampleCursor {
	if t == nil || durationMs <= 0 {
		return nil
	}
	c := t.openRun(durationMs)
	c.ts = t
	c.lat = make([]float64, 0, 64)
	return c
}

// CaptureRun opens a cursor like StartRun whose sealed rows stay in the
// cursor (Rows, Latencies) instead of reaching t; t supplies only the
// interval and the residency levels. completions bounds the latencies the
// run can record, so recording never grows the cursor's buffers. Returns nil
// where StartRun does.
func (t *Timeseries) CaptureRun(durationMs float64, completions int) *SampleCursor {
	if t == nil || durationMs <= 0 {
		return nil
	}
	c := t.openRun(durationMs)
	n := SampleCount(durationMs, t.intervalMs)
	c.lat = make([]float64, 0, completions)
	c.rows = make([]TimeseriesRow, 0, n)
	c.rowResid = make([]float64, 0, n*len(t.freqs))
	c.latEnd = make([]int, 0, n)
	return c
}

// openRun is the cursor state StartRun and CaptureRun share.
func (t *Timeseries) openRun(durationMs float64) *SampleCursor {
	c := &SampleCursor{
		intervalMs: t.intervalMs,
		durationMs: durationMs,
		nextAt:     sampleBoundary(1, t.intervalMs, durationMs),
		resid:      make([]float64, len(t.freqs)),
	}
	c.SetLevel(0, 0)
	return c
}

// Rows returns a capture cursor's sealed rows, oldest first. They alias the
// cursor's storage: read them, do not keep or modify them. Nil for a live
// cursor or a nil one.
func (c *SampleCursor) Rows() []TimeseriesRow {
	if c == nil {
		return nil
	}
	return c.rows
}

// Latencies returns the latencies that completed inside sealed row k's
// window, in completion order, aliasing the cursor's storage (capture cursor
// only).
func (c *SampleCursor) Latencies(k int) []float64 {
	lo := 0
	if k > 0 {
		lo = c.latEnd[k-1]
	}
	return c.lat[lo:c.latEnd[k]]
}

// NextAt returns the next boundary to arm a timer for, or -1 when the run's
// final boundary has been sampled.
func (c *SampleCursor) NextAt() float64 { return c.nextAt }

// SetLevel records a switch to a frequency-ladder level at nowMs: the time
// since the previous switch, or since the window opened, is charged to the
// old level. Out-of-range levels clamp into the table.
func (c *SampleCursor) SetLevel(level int, nowMs float64) {
	c.chargeLevel(nowMs)
	if level < 0 {
		level = 0
	}
	if n := len(c.resid); level >= n {
		level = n - 1
	}
	c.level = level
}

// chargeLevel charges the time from the last switch to nowMs to the current
// level.
func (c *SampleCursor) chargeLevel(nowMs float64) {
	if dt := nowMs - c.switchMs; dt > 0 {
		if c.level >= 0 {
			c.resid[c.level] += dt
		}
		c.switchMs = nowMs
	}
}

// SetSLODeadline arms deadline classification: subsequent OnCompletion calls
// with latency above deadlineMs count into the row's SLOViolations column.
// A non-positive deadline disables classification.
func (c *SampleCursor) SetSLODeadline(deadlineMs float64) {
	if deadlineMs < 0 {
		deadlineMs = 0
	}
	c.sloDeadlineMs = deadlineMs
}

// OnArrival counts one arrival in the current window. depth is the queue
// depth including the new request — arrivals are the only moments the queue
// grows, so the per-window high-water mark is the max over these readings
// and the previous boundary's instantaneous depth.
func (c *SampleCursor) OnArrival(depth float64) {
	c.arrivals++
	if depth > c.queueHW {
		c.queueHW = depth
	}
}

// OnCompletion counts one completion and records its latency for the
// window's percentiles, classifying it against the SLO deadline when one is
// armed.
func (c *SampleCursor) OnCompletion(latencyMs float64) {
	c.completions++
	if c.sloDeadlineMs > 0 && latencyMs > c.sloDeadlineMs {
		c.sloViolations++
	}
	c.lat = append(c.lat, latencyMs)
}

// OnDrop counts one drop in the current window.
func (c *SampleCursor) OnDrop() { c.drops++ }

// Sample seals the window ending at row.TimeMs and appends it (a capture
// cursor keeps it). row carries the producer's instantaneous readings
// (QueueDepth, InFlight, and the live listeners' runtime columns) and leaves
// the windowed ones zero; Sample fills those in: power from the delta of the
// cumulative energyMJ reading, lifecycle and SLO counts, the queue
// high-water mark, residency fractions and, on a live cursor, the windowed
// percentiles (the buffer is sorted in place). A capture cursor leaves the
// percentiles zero and its window unsorted: the merge that reads it computes
// them from the union of every run's window. Sample then resets the
// accumulators and advances to the next boundary.
func (c *SampleCursor) Sample(row TimeseriesRow, energyMJ float64) {
	nowMs := row.TimeMs
	c.chargeLevel(nowMs)
	if row.QueueDepth > c.queueHW {
		c.queueHW = row.QueueDepth
	}
	row.Arrivals, row.Completions, row.Drops = c.arrivals, c.completions, c.drops
	row.SLOViolations = c.sloViolations
	row.QueueHighWater = c.queueHW
	row.Residency = c.resid
	if dt := nowMs - c.lastMs; dt > 0 {
		// mJ per ms is watts.
		row.PowerW = (energyMJ - c.lastEnergyMJ) / dt
		for i, r := range c.resid {
			c.resid[i] = r / dt
		}
	}
	if c.ts != nil {
		if len(c.lat) > 0 {
			stats.SortAscending(c.lat)
			row.P50Ms = stats.PercentileSorted(c.lat, 50)
			row.P95Ms = stats.PercentileSorted(c.lat, 95)
			row.P99Ms = stats.PercentileSorted(c.lat, 99)
		}
		c.ts.Append(row)
		c.lat = c.lat[:0]
	} else {
		c.keep(row)
	}

	c.lastMs, c.lastEnergyMJ = nowMs, energyMJ
	c.arrivals, c.completions, c.drops = 0, 0, 0
	c.sloViolations = 0
	// The queue only grows at arrivals, so the boundary depth seeds the next
	// window's high-water mark: a draining queue's mark falls with it, a
	// saturated one carries over.
	c.queueHW = row.QueueDepth
	for i := range c.resid {
		c.resid[i] = 0
	}
	c.k++
	if nowMs >= c.durationMs {
		c.nextAt = -1
		return
	}
	c.nextAt = sampleBoundary(c.k+1, c.intervalMs, c.durationMs)
}

// keep stores a sealed row in a capture cursor: its residency copied out of
// the accumulators, its window's latencies left in place behind an end
// offset.
func (c *SampleCursor) keep(row TimeseriesRow) {
	lo := len(c.rowResid)
	c.rowResid = append(c.rowResid, c.resid...)
	row.Residency = c.rowResid[lo:len(c.rowResid):len(c.rowResid)]
	c.rows = append(c.rows, row)
	c.latEnd = append(c.latEnd, len(c.lat))
}

// timelinePayload is the JSON body served by TimelineHandler.
type timelinePayload struct {
	IntervalMs float64         `json:"interval_ms"`
	FreqsGHz   []float64       `json:"freqs_ghz"`
	Total      uint64          `json:"total"`
	Samples    []TimeseriesRow `json:"samples"`
}

// TimelineHandler serves the most recent timeline samples as JSON — mount it
// at /debug/timeline. The ?n= query parameter bounds the sample count
// (ClampDebugN semantics: default defaultN, hard ceiling MaxDebugN). The
// schema matches the simulator's -timeline export row for row.
func TimelineHandler(t *Timeseries, defaultN int) http.Handler {
	return debugJSONHandler(defaultN, func(n int) any {
		payload := timelinePayload{Samples: []TimeseriesRow{}}
		if t != nil {
			payload.IntervalMs = t.IntervalMs()
			payload.FreqsGHz = t.FreqsGHz()
			payload.Total = t.Total()
			if rows := t.Snapshot(n); rows != nil {
				payload.Samples = rows
			}
		}
		return payload
	})
}
