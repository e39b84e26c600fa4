package telemetry

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"testing"
)

// cfg helper: 10 ms deadline at p99 (budget fraction 0.01), default 1 s
// buckets and 1/10/60 s windows.
func testSLOConfig() SLOConfig {
	return SLOConfig{DeadlineMs: 10, TargetPct: 99}
}

func observeN(t *SLOTracker, nowMs float64, good, bad int) {
	for i := 0; i < good; i++ {
		t.Observe(nowMs, 1)
	}
	for i := 0; i < bad; i++ {
		t.Observe(nowMs, 100)
	}
}

func TestSLOBurnRateGolden(t *testing.T) {
	// burn = badFraction / budgetFraction. At p99 the budget fraction is
	// 0.01, so 1 bad in 100 burns at exactly 1.0 and 144 bad in 1000 at
	// exactly 14.4 — the classic fast-page threshold.
	cases := []struct {
		name      string
		good, bad int
		wantBurn  float64
		wantFast  bool
		wantSlow  bool
	}{
		{"exactly budgeted", 99, 1, 1.0, false, false},
		{"under budget", 991, 9, 0.9, false, false},
		{"clear slow burn", 98, 2, 2.0, false, true},
		{"clear fast burn", 850, 150, 15.0, true, true},
		{"all good", 1000, 0, 0, false, false},
	}
	// Note "exactly budgeted": 1 - 99/100 is not exactly representable, so a
	// burn of nominally 1.0 computes fractionally under the slow threshold —
	// the exact >= boundary is pinned separately with representable arithmetic
	// in TestSLOBurnThresholdBoundaryExact.
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := NewSLOTracker(testSLOConfig())
			observeN(tr, 500, tc.good, tc.bad)
			s := tr.Snapshot(500, 0)
			if got := s.Windows[0].BurnRate; math.Abs(got-tc.wantBurn) > 1e-9 {
				t.Fatalf("window[0] burn = %v, want %v", got, tc.wantBurn)
			}
			if s.FastBurn != tc.wantFast {
				t.Fatalf("FastBurn = %v, want %v", s.FastBurn, tc.wantFast)
			}
			if s.SlowBurn != tc.wantSlow {
				t.Fatalf("SlowBurn = %v, want %v", s.SlowBurn, tc.wantSlow)
			}
		})
	}
}

func TestSLOBurnThresholdBoundaryExact(t *testing.T) {
	// TargetPct 75 gives an exactly representable budget fraction of 0.25,
	// so burn rates land on exact values and the >= flag boundary is testable
	// without float noise.
	cfg := SLOConfig{DeadlineMs: 10, TargetPct: 75, FastBurnThreshold: 2, SlowBurnThreshold: 1}
	tr := NewSLOTracker(cfg)
	observeN(tr, 500, 1, 1) // bad fraction 0.5 → burn exactly 2.0
	s := tr.Snapshot(500, 0)
	if s.Windows[0].BurnRate != 2.0 {
		t.Fatalf("burn = %v, want exactly 2.0", s.Windows[0].BurnRate)
	}
	if !s.FastBurn || !s.SlowBurn {
		t.Fatalf("flags at exact thresholds = fast %v slow %v, want true/true (>= semantics)", s.FastBurn, s.SlowBurn)
	}

	tr = NewSLOTracker(cfg)
	observeN(tr, 500, 3, 1) // bad fraction 0.25 → burn exactly 1.0
	s = tr.Snapshot(500, 0)
	if s.Windows[0].BurnRate != 1.0 {
		t.Fatalf("burn = %v, want exactly 1.0", s.Windows[0].BurnRate)
	}
	if s.FastBurn || !s.SlowBurn {
		t.Fatalf("flags at burn 1.0 = fast %v slow %v, want false/true", s.FastBurn, s.SlowBurn)
	}
}

func TestSLOEmptyWindowBurnsZero(t *testing.T) {
	tr := NewSLOTracker(testSLOConfig())
	observeN(tr, 500, 10, 5)
	// Jump far past the longest window: every trailing window is empty, so
	// burn rates drop to zero while cumulative accounting persists.
	s := tr.Snapshot(500_000, 0)
	for _, w := range s.Windows {
		if w.Good != 0 || w.Bad != 0 || w.BurnRate != 0 {
			t.Fatalf("window %v not empty after idle jump: %+v", w.WindowMs, w)
		}
	}
	if s.FastBurn || s.SlowBurn {
		t.Fatalf("burn flags set on empty windows")
	}
	if s.Good != 10 || s.Bad != 5 {
		t.Fatalf("cumulative = %d/%d, want 10/5", s.Good, s.Bad)
	}
	if s.BudgetRemaining >= 0 {
		t.Fatalf("BudgetRemaining = %v, want negative (5/15 bad at a 0.01 budget)", s.BudgetRemaining)
	}
}

func TestSLORingEviction(t *testing.T) {
	// 100 ms buckets, one 300 ms window: a 3-bucket ring.
	cfg := SLOConfig{DeadlineMs: 10, TargetPct: 99, BucketMs: 100, WindowsMs: []float64{300}}
	tr := NewSLOTracker(cfg)
	tr.ObserveCounts(50, 1, 0)  // bucket 0
	tr.ObserveCounts(150, 2, 0) // bucket 1
	tr.ObserveCounts(250, 4, 0) // bucket 2
	tr.ObserveCounts(350, 8, 0) // bucket 3 evicts bucket 0
	s := tr.Snapshot(350, 0)
	if got := s.Windows[0].Good; got != 2+4+8 {
		t.Fatalf("window good = %d, want 14 (bucket 0 evicted)", got)
	}
	if s.Good != 15 {
		t.Fatalf("cumulative good = %d, want 15 (evictions included)", s.Good)
	}
	if n := len(s.Buckets); n != 3 {
		t.Fatalf("retained buckets = %d, want 3", n)
	}
	if s.Buckets[0].EndMs != 200 || s.Buckets[2].EndMs != 400 {
		t.Fatalf("bucket range = [%v, %v], want [200, 400]", s.Buckets[0].EndMs, s.Buckets[2].EndMs)
	}
}

func TestSLORingResetOnLongJump(t *testing.T) {
	cfg := SLOConfig{DeadlineMs: 10, TargetPct: 99, BucketMs: 100, WindowsMs: []float64{300}}
	tr := NewSLOTracker(cfg)
	tr.ObserveCounts(50, 3, 3)
	// A jump of many ring lengths must clear every slot — stale buckets from
	// before the jump may not leak into windows or snapshots.
	tr.ObserveCounts(10_050, 1, 0)
	s := tr.Snapshot(10_050, 0)
	if s.Windows[0].Good != 1 || s.Windows[0].Bad != 0 {
		t.Fatalf("window after reset = %d/%d, want 1/0", s.Windows[0].Good, s.Windows[0].Bad)
	}
	if len(s.Buckets) != 1 {
		t.Fatalf("buckets after reset = %d, want 1", len(s.Buckets))
	}
	if s.Good != 4 || s.Bad != 3 {
		t.Fatalf("cumulative = %d/%d, want 4/3", s.Good, s.Bad)
	}
}

func TestSLOOutOfOrderCountsIntoCurrentBucket(t *testing.T) {
	cfg := SLOConfig{DeadlineMs: 10, TargetPct: 99, BucketMs: 100, WindowsMs: []float64{100}}
	tr := NewSLOTracker(cfg)
	tr.ObserveCounts(250, 1, 0)
	tr.ObserveCounts(50, 1, 0) // earlier than the current bucket: no rewind
	s := tr.Snapshot(250, 0)
	if s.Windows[0].Good != 2 {
		t.Fatalf("window good = %d, want 2 (out-of-order counts forward)", s.Windows[0].Good)
	}
}

func TestSLOFeedRows(t *testing.T) {
	tr := NewSLOTracker(testSLOConfig())
	tr.FeedRows([]TimeseriesRow{
		{TimeMs: 1000, Completions: 10, SLOViolations: 2, Drops: 1},
		{TimeMs: 2000, Completions: 5, SLOViolations: 7, Drops: 0}, // clamp: violations > completions
	})
	s := tr.Snapshot(2000, 0)
	// Row 1: good 8, bad 3. Row 2: good clamps to 0, bad 7.
	if s.Good != 8 || s.Bad != 10 {
		t.Fatalf("cumulative = %d/%d, want 8/10", s.Good, s.Bad)
	}
}

func TestSLOTrackerNilSafe(t *testing.T) {
	var tr *SLOTracker
	tr.Observe(0, 1)
	tr.ObserveBad(0)
	tr.FeedRows([]TimeseriesRow{{TimeMs: 1}})
	s := tr.Snapshot(0, 0)
	if s.Windows == nil || s.Buckets == nil {
		t.Fatalf("nil tracker snapshot must carry empty slices")
	}
}

func TestClampDebugN(t *testing.T) {
	cases := []struct {
		s       string
		def     int
		want    int
		wantErr bool
	}{
		{"", 50, 50, false},
		{"17", 50, 17, false},
		{"abc", 50, 0, true},
		{"-5", 50, 0, true},
		{"1.5", 50, 0, true},
		{"0", 50, MaxDebugN, false},
		{"999999", 50, MaxDebugN, false},
		{"", 0, MaxDebugN, false},      // default is clamped too
		{"", 99_999, MaxDebugN, false}, // oversized default is clamped too
	}
	for _, tc := range cases {
		got, err := ClampDebugN(tc.s, tc.def)
		if (err != nil) != tc.wantErr {
			t.Fatalf("ClampDebugN(%q, %d) err = %v, wantErr %v", tc.s, tc.def, err, tc.wantErr)
		}
		if err == nil && got != tc.want {
			t.Fatalf("ClampDebugN(%q, %d) = %d, want %d", tc.s, tc.def, got, tc.want)
		}
	}
}

func TestSLOHandler(t *testing.T) {
	tr := NewSLOTracker(testSLOConfig())
	observeN(tr, 500, 3, 1)
	h := SLOHandler(func(n int) SLOSnapshot { return tr.Snapshot(1000, n) }, 60)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slo", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	var s SLOSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if s.Good != 3 || s.Bad != 1 || len(s.Windows) != 3 {
		t.Fatalf("snapshot = %d/%d with %d windows, want 3/1 with 3", s.Good, s.Bad, len(s.Windows))
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slo?n=bogus", nil))
	if rec.Code != 400 {
		t.Fatalf("bad n: status = %d, want 400", rec.Code)
	}
}

func TestSLOObserveZeroAlloc(t *testing.T) {
	tr := NewSLOTracker(testSLOConfig())
	now := 0.0
	if allocs := testing.AllocsPerRun(1000, func() {
		now += 0.5
		tr.Observe(now, 5)
	}); allocs != 0 {
		t.Fatalf("Observe allocates %v/op, want 0", allocs)
	}
}

func BenchmarkSLOTrackerObserve(b *testing.B) {
	tr := NewSLOTracker(testSLOConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Observe(float64(i)*0.01, 5)
	}
}

func BenchmarkSLOSnapshot(b *testing.B) {
	tr := NewSLOTracker(testSLOConfig())
	for i := 0; i < 70_000; i++ {
		tr.Observe(float64(i), 5)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tr.Snapshot(70_000, 60)
	}
}
