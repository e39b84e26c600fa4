package telemetry

import (
	"math"
	"net/http"
	"sync"
)

// SLO & error-budget burn tracking. The paper's objective is a latency SLO —
// finish every query inside deadline D at a target tail percentile — at
// minimum energy; this file gives that objective a runtime representation.
// An SLOTracker counts good events (latency <= deadline) and bad events
// (violations, drops, errors) into fixed-width time buckets and derives
// SRE-style multi-window error-budget burn rates: the ratio of the observed
// bad fraction to the budgeted bad fraction (1 - target percentile). A burn
// rate of 1 consumes the budget exactly as provisioned; a fast burn of 14.4
// over a short window empties a 30-day budget in two days, the classic
// fast-page threshold.
//
// The tracker takes every timestamp explicitly (milliseconds on the caller's
// clock) and never reads a wall clock itself — it serves both the simulator
// (simulated time via TimeseriesRow feeds, byte-identical at any GOMAXPROCS
// because the rows are) and the live listeners (internal/server supplies
// wall time, the one layer allowed to). TestSLOEmptyWindowBurnsZero fails if
// the tracker reads a clock of its own.

// SLOConfig parameterizes a tracker. The zero value is completed by
// withDefaults: the paper's 40 ms deadline at p99, 1 s buckets, 1 s / 10 s /
// 60 s burn windows, and the conventional 14.4 (fast) / 1.0 (slow) burn
// thresholds.
type SLOConfig struct {
	// DeadlineMs is the latency SLO deadline D: an event observed with
	// latency <= DeadlineMs is good, above it bad.
	DeadlineMs float64 `json:"deadline_ms"`
	// TargetPct is the target percentile (e.g. 99): the SLO holds while at
	// most 1 - TargetPct/100 of events are bad. That fraction is the error
	// budget burn rates are normalized against.
	TargetPct float64 `json:"target_pct"`
	// BucketMs is the accounting granularity; windows are rounded up to
	// whole buckets.
	BucketMs float64 `json:"bucket_ms"`
	// WindowsMs are the trailing burn-rate windows, shortest first. The
	// shortest window drives the fast-burn flag, the longest the slow-burn
	// flag.
	WindowsMs []float64 `json:"windows_ms"`
	// FastBurnThreshold and SlowBurnThreshold gate the snapshot's FastBurn /
	// SlowBurn flags against the shortest / longest window's burn rate.
	FastBurnThreshold float64 `json:"fast_burn_threshold"`
	SlowBurnThreshold float64 `json:"slow_burn_threshold"`
}

// DefaultSLOWindowsMs are the default burn windows: 1 s, 10 s, 60 s.
var DefaultSLOWindowsMs = []float64{1000, 10_000, 60_000}

// withDefaults fills zero fields with the package defaults.
func (c SLOConfig) withDefaults() SLOConfig {
	if c.DeadlineMs <= 0 {
		c.DeadlineMs = 40
	}
	if c.TargetPct <= 0 || c.TargetPct >= 100 {
		c.TargetPct = 99
	}
	if c.BucketMs <= 0 {
		c.BucketMs = 1000
	}
	if len(c.WindowsMs) == 0 {
		c.WindowsMs = DefaultSLOWindowsMs
	}
	if c.FastBurnThreshold <= 0 {
		c.FastBurnThreshold = 14.4
	}
	if c.SlowBurnThreshold <= 0 {
		c.SlowBurnThreshold = 1
	}
	return c
}

// BudgetFraction is the budgeted bad-event fraction 1 - TargetPct/100.
func (c SLOConfig) BudgetFraction() float64 { return 1 - c.TargetPct/100 }

// sloBucket is one accounting bucket: good/bad counts for the bucket whose
// absolute index (bucket start = abs·BucketMs) the ring position holds.
type sloBucket struct {
	abs       int64 // absolute bucket number; -1 = never written
	good, bad uint64
}

// SLOTracker accumulates good/bad events into a bucket ring and answers
// multi-window burn-rate queries. All methods are safe for concurrent use
// and nil-safe; Observe is allocation-free. Time flows forward: an
// observation earlier than the current bucket is counted into the current
// bucket rather than rewinding history.
type SLOTracker struct {
	mu      sync.Mutex
	cfg     SLOConfig
	buckets []sloBucket
	cur     int   // ring index of the current bucket
	curAbs  int64 // absolute bucket number of the current bucket
	started bool
	// Cumulative totals, evictions included.
	good, bad uint64
}

// NewSLOTracker builds a tracker; zero config fields take the defaults. The
// ring retains exactly enough buckets to answer the longest window.
func NewSLOTracker(cfg SLOConfig) *SLOTracker {
	cfg = cfg.withDefaults()
	maxWin := cfg.WindowsMs[0]
	for _, w := range cfg.WindowsMs {
		if w > maxWin {
			maxWin = w
		}
	}
	n := windowBuckets(maxWin, cfg.BucketMs)
	t := &SLOTracker{cfg: cfg, buckets: make([]sloBucket, n)}
	for i := range t.buckets {
		t.buckets[i].abs = -1
	}
	return t
}

// windowBuckets is the bucket count covering a trailing window: whole
// buckets, rounded up, at least one (the current, possibly partial, bucket).
func windowBuckets(windowMs, bucketMs float64) int {
	k := int(math.Ceil(windowMs / bucketMs))
	if k < 1 {
		k = 1
	}
	return k
}

// Config returns the tracker's effective (default-completed) configuration.
func (t *SLOTracker) Config() SLOConfig {
	if t == nil {
		return SLOConfig{}.withDefaults()
	}
	return t.cfg
}

// advance rolls the ring forward so the bucket containing nowMs is current.
// Bucket boundaries multiply (abs·BucketMs) rather than accumulate — the
// same drift-free discipline the timeline sampler uses. Caller holds t.mu.
func (t *SLOTracker) advance(nowMs float64) {
	target := int64(nowMs / t.cfg.BucketMs)
	if nowMs < 0 {
		target = 0
	}
	if !t.started {
		t.started = true
		t.curAbs = target
		t.buckets[t.cur] = sloBucket{abs: target}
		return
	}
	if target <= t.curAbs {
		return // same bucket, or out-of-order: count into the current bucket
	}
	if steps := target - t.curAbs; steps >= int64(len(t.buckets)) {
		// The jump clears the whole ring: reset rather than stepping.
		for i := range t.buckets {
			t.buckets[i] = sloBucket{abs: -1}
		}
		t.cur = 0
		t.curAbs = target
		t.buckets[0] = sloBucket{abs: target}
		return
	}
	for t.curAbs < target {
		t.curAbs++
		t.cur = (t.cur + 1) % len(t.buckets)
		t.buckets[t.cur] = sloBucket{abs: t.curAbs}
	}
}

// Observe records one event at nowMs: good when latencyMs <= the deadline,
// bad otherwise. Allocation-free.
func (t *SLOTracker) Observe(nowMs, latencyMs float64) {
	if t == nil {
		return
	}
	if latencyMs <= t.cfg.DeadlineMs {
		t.ObserveCounts(nowMs, 1, 0)
	} else {
		t.ObserveCounts(nowMs, 0, 1)
	}
}

// ObserveBad records one bad event (a drop, an error, a shed request) at
// nowMs — events that never produced a latency still burn budget.
func (t *SLOTracker) ObserveBad(nowMs float64) {
	t.ObserveCounts(nowMs, 0, 1)
}

// ObserveCounts records a batch of pre-classified events at nowMs. This is
// the TimeseriesRow feed: the simulator's sampler classifies completions
// against the workload deadline per window, and each row's counts land in
// the bucket containing the row's end boundary.
func (t *SLOTracker) ObserveCounts(nowMs float64, good, bad uint64) {
	if t == nil || (good == 0 && bad == 0) {
		return
	}
	t.mu.Lock()
	t.advance(nowMs)
	t.buckets[t.cur].good += good
	t.buckets[t.cur].bad += bad
	t.good += good
	t.bad += bad
	t.mu.Unlock()
}

// FeedRows replays sampled timeline rows into the tracker: good = in-window
// completions that met the deadline, bad = deadline violations plus drops.
// Rows are byte-identical for serial and sharded runs, so so is the
// resulting tracker state.
func (t *SLOTracker) FeedRows(rows []TimeseriesRow) {
	if t == nil {
		return
	}
	for _, r := range rows {
		good := r.Completions - r.SLOViolations
		if r.SLOViolations > r.Completions {
			good = 0
		}
		t.ObserveCounts(r.TimeMs, good, r.SLOViolations+r.Drops)
	}
}

// SLOWindow is one trailing window's burn view.
type SLOWindow struct {
	WindowMs    float64 `json:"window_ms"`
	Good        uint64  `json:"good"`
	Bad         uint64  `json:"bad"`
	BadFraction float64 `json:"bad_fraction"`
	// BurnRate is BadFraction divided by the budgeted fraction: 1.0 burns
	// the budget exactly as provisioned, 0 when the window is empty.
	BurnRate float64 `json:"burn_rate"`
}

// SLOBucketView is one accounting bucket in a snapshot, oldest first.
type SLOBucketView struct {
	EndMs float64 `json:"end_ms"`
	Good  uint64  `json:"good"`
	Bad   uint64  `json:"bad"`
}

// SLOSnapshot is the tracker's queryable state at an instant — the
// /debug/slo payload and the SoakReport's SLO section.
type SLOSnapshot struct {
	Config SLOConfig `json:"config"`
	// NowMs is the query instant the windows trail from.
	NowMs float64 `json:"now_ms"`
	// Good and Bad are cumulative since the tracker was created.
	Good uint64 `json:"good"`
	Bad  uint64 `json:"bad"`
	// BudgetRemaining is the unconsumed fraction of the cumulative error
	// budget: 1 with no bad events, 0 at exactly the budgeted bad fraction,
	// negative once the SLO is cumulatively blown. 1 when no events at all.
	BudgetRemaining float64 `json:"budget_remaining"`
	// FastBurn / SlowBurn flag the shortest / longest window's burn rate
	// crossing its configured threshold.
	FastBurn bool        `json:"fast_burn"`
	SlowBurn bool        `json:"slow_burn"`
	Windows  []SLOWindow `json:"windows"`
	// Buckets are the most recent accounting buckets, oldest first, bounded
	// by the snapshot's n.
	Buckets []SLOBucketView `json:"buckets"`
}

// Snapshot computes the multi-window burn view at nowMs, returning at most n
// trailing buckets (n <= 0 returns every retained bucket).
func (t *SLOTracker) Snapshot(nowMs float64, n int) SLOSnapshot {
	if t == nil {
		return SLOSnapshot{Config: SLOConfig{}.withDefaults(), Windows: []SLOWindow{}, Buckets: []SLOBucketView{}}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.advance(nowMs)
	s := SLOSnapshot{
		Config:          t.cfg,
		NowMs:           nowMs,
		Good:            t.good,
		Bad:             t.bad,
		BudgetRemaining: 1,
		Windows:         make([]SLOWindow, 0, len(t.cfg.WindowsMs)),
		Buckets:         []SLOBucketView{},
	}
	budget := t.cfg.BudgetFraction()
	if total := t.good + t.bad; total > 0 && budget > 0 {
		s.BudgetRemaining = 1 - (float64(t.bad)/float64(total))/budget
	}
	for _, w := range t.cfg.WindowsMs {
		win := SLOWindow{WindowMs: w}
		k := windowBuckets(w, t.cfg.BucketMs)
		if k > len(t.buckets) {
			k = len(t.buckets)
		}
		for i := 0; i < k; i++ {
			b := t.buckets[(t.cur-i+len(t.buckets))%len(t.buckets)]
			if b.abs < 0 || b.abs > t.curAbs-int64(i) {
				continue // never written, or a stale slot from before a reset
			}
			win.Good += b.good
			win.Bad += b.bad
		}
		if total := win.Good + win.Bad; total > 0 {
			win.BadFraction = float64(win.Bad) / float64(total)
			if budget > 0 {
				win.BurnRate = win.BadFraction / budget
			}
		}
		s.Windows = append(s.Windows, win)
	}
	if len(s.Windows) > 0 {
		s.FastBurn = s.Windows[0].BurnRate >= t.cfg.FastBurnThreshold
		s.SlowBurn = s.Windows[len(s.Windows)-1].BurnRate >= t.cfg.SlowBurnThreshold
	}
	if n <= 0 || n > len(t.buckets) {
		n = len(t.buckets)
	}
	for i := n - 1; i >= 0; i-- {
		b := t.buckets[(t.cur-i+len(t.buckets))%len(t.buckets)]
		if b.abs < 0 {
			continue
		}
		s.Buckets = append(s.Buckets, SLOBucketView{
			EndMs: float64(b.abs+1) * t.cfg.BucketMs,
			Good:  b.good,
			Bad:   b.bad,
		})
	}
	return s
}

// SLOHandler serves an SLO snapshot as JSON — mount it at /debug/slo. The
// snap callback supplies the snapshot so the clock stays with the caller
// (wall time in internal/server, simulated time in tests); n is the clamped
// ?n= bucket bound (default defaultN, ClampDebugN semantics).
func SLOHandler(snap func(n int) SLOSnapshot, defaultN int) http.Handler {
	return debugJSONHandler(defaultN, func(n int) any {
		s := snap(n)
		if s.Windows == nil {
			s.Windows = []SLOWindow{}
		}
		if s.Buckets == nil {
			s.Buckets = []SLOBucketView{}
		}
		return s
	})
}
