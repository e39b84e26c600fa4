package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"gemini/internal/stats"
)

func sampleRow(k int) TimeseriesRow {
	return TimeseriesRow{
		TimeMs:      float64(k+1) * 100,
		PowerW:      5 + float64(k),
		QueueDepth:  float64(k % 3),
		InFlight:    1,
		Arrivals:    uint64(k + 2),
		Completions: uint64(k + 1),
		Residency:   []float64{0.25, 0.75},
		P99Ms:       float64(10 + k),
	}
}

func TestTimeseriesRingEviction(t *testing.T) {
	ts := NewTimeseries(100, []float64{1.2, 2.7}, 3)
	for k := 0; k < 5; k++ {
		ts.Append(sampleRow(k))
	}
	if ts.Len() != 3 || ts.Total() != 5 {
		t.Fatalf("Len=%d Total=%d, want 3 and 5", ts.Len(), ts.Total())
	}
	rows := ts.Rows()
	for i, want := range []float64{300, 400, 500} {
		if rows[i].TimeMs != want {
			t.Fatalf("row %d TimeMs = %v, want %v (oldest-first after eviction)", i, rows[i].TimeMs, want)
		}
	}
	if got := ts.Snapshot(2); len(got) != 2 || got[0].TimeMs != 400 {
		t.Fatalf("Snapshot(2) = %+v, want the 2 most recent oldest-first", got)
	}
}

func TestTimeseriesAppendCopiesResidency(t *testing.T) {
	ts := NewTimeseries(100, []float64{1.2, 2.7}, 4)
	resid := []float64{0.5, 0.5}
	ts.Append(TimeseriesRow{TimeMs: 100, Residency: resid})
	resid[0] = 99 // caller reuses its buffer; the stored row must not alias it
	if got := ts.Rows()[0].Residency[0]; got != 0.5 {
		t.Fatalf("stored residency %v follows caller mutation, want 0.5", got)
	}
}

func TestTimeseriesAppendNoAllocs(t *testing.T) {
	ts := NewTimeseries(100, []float64{1.2, 2.7}, 8)
	row := sampleRow(0)
	allocs := testing.AllocsPerRun(100, func() { ts.Append(row) })
	if allocs > 0 {
		t.Fatalf("Append allocates %.1f per call; the ring is preallocated", allocs)
	}
}

// TestTimeseriesSnapshotAllocs: Snapshot cuts every row's Residency from
// one backing array, and the rows still own it apart from the ring.
func TestTimeseriesSnapshotAllocs(t *testing.T) {
	ts := NewTimeseries(100, []float64{1.2, 2.7}, 64)
	for k := 0; k < 64; k++ {
		ts.Append(sampleRow(k))
	}
	if allocs := testing.AllocsPerRun(20, func() { ts.Snapshot(0) }); allocs != 2 {
		t.Errorf("Snapshot of 64 rows allocates %.0f times, want 2", allocs)
	}
	rows := ts.Rows()
	rows[0].Residency = append(rows[0].Residency, 9) // must not reach row 1
	rows[1].Residency[0] = 9                         // must not reach the ring
	if rows[1].Residency[0] != 9 || ts.Rows()[1].Residency[0] != 0.25 || len(rows[1].Residency) != 2 {
		t.Errorf("snapshot rows share residency with each other or the ring: %v", ts.Rows()[1].Residency)
	}
}

// TestCaptureRunMatchesStartRun: a capture cursor fed what a live cursor is
// fed keeps exactly the rows the live one appends, but for the percentiles,
// which it leaves to the merge, and each row's latencies in completion order,
// with nothing in a window it does not end. The live row's percentiles are
// those of the captured window, sorted.
func TestCaptureRunMatchesStartRun(t *testing.T) {
	const dur = 450.0 // a partial last window
	live := NewTimeseries(100, []float64{1.2, 2.7}, 8)
	lc := live.StartRun(dur)
	cc := live.CaptureRun(dur, 64)
	var wins [][]float64
	var win []float64
	for k := 1; k <= SampleCount(dur, 100); k++ {
		b := math.Min(float64(k)*100, dur)
		for i := 0; i < k%4+1; i++ {
			lat := float64((k*7+i*13)%17) + 0.5
			win = append(win, lat)
			for _, c := range []*SampleCursor{lc, cc} {
				c.OnArrival(float64(i + 1))
				c.OnCompletion(lat)
				c.SetLevel((k+i)%2, b-50+float64(i))
			}
		}
		for _, c := range []*SampleCursor{lc, cc} {
			c.Sample(TimeseriesRow{TimeMs: b, QueueDepth: float64(k % 3)}, 3*b+float64(k))
		}
		wins = append(wins, win)
		win = nil
	}
	cc.OnCompletion(99) // past the final boundary: in no window
	if live.Len() != len(wins) {
		t.Fatalf("live cursor sealed %d rows, want %d", live.Len(), len(wins))
	}
	want := live.Rows()
	for k := range want {
		w := &want[k]
		sorted := slices.Clone(wins[k])
		slices.Sort(sorted)
		if w.P50Ms != stats.PercentileSorted(sorted, 50) || w.P95Ms != stats.PercentileSorted(sorted, 95) ||
			w.P99Ms != stats.PercentileSorted(sorted, 99) {
			t.Errorf("window %d: live percentiles %v/%v/%v are not those of its latencies %v",
				k, w.P50Ms, w.P95Ms, w.P99Ms, sorted)
		}
		w.P50Ms, w.P95Ms, w.P99Ms = 0, 0, 0
	}
	if got := cc.Rows(); !reflect.DeepEqual(got, want) {
		t.Fatalf("capture rows differ from the live cursor's:\n got %+v\nwant %+v", got, want)
	}
	for k, want := range wins {
		if got := cc.Latencies(k); !slices.Equal(got, want) {
			t.Errorf("window %d latencies %v, want %v", k, got, want)
		}
	}
	if lc.Rows() != nil {
		t.Error("a live cursor reports captured rows")
	}
}

func TestTimeseriesNilSafe(t *testing.T) {
	var ts *Timeseries
	if ts.Len() != 0 || ts.Total() != 0 || ts.Rows() != nil || ts.StartRun(100) != nil ||
		ts.CaptureRun(100, 1) != nil || ts.CaptureRun(100, 1).Rows() != nil {
		t.Fatal("nil Timeseries methods must be inert")
	}
	ts.Append(sampleRow(0))
	if ts.Len() != 0 {
		t.Fatal("Append on nil Timeseries must be a no-op")
	}
}

func TestSampleCount(t *testing.T) {
	cases := []struct {
		dur, iv float64
		want    int
	}{
		{1000, 100, 10},
		{1050, 100, 11}, // partial final window
		{100, 100, 1},
		{50, 100, 1}, // shorter than one interval: single clamped window
		{0, 100, 0},  // invalid inputs produce no windows
		{1000, 0, 0},
	}
	for _, c := range cases {
		if got := SampleCount(c.dur, c.iv); got != c.want {
			t.Errorf("SampleCount(%v, %v) = %d, want %d", c.dur, c.iv, got, c.want)
		}
	}
}

func TestTimeseriesJSONLAndCSV(t *testing.T) {
	ts := NewTimeseries(100, []float64{1.2, 2.7}, 4)
	ts.Append(sampleRow(0))
	ts.Append(sampleRow(1))

	var jl bytes.Buffer
	if err := ts.WriteJSONL(&jl); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jl.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("JSONL has %d lines, want 2", len(lines))
	}
	var row TimeseriesRow
	if err := json.Unmarshal([]byte(lines[0]), &row); err != nil {
		t.Fatalf("JSONL line does not round-trip: %v", err)
	}
	if row.TimeMs != 100 || row.Arrivals != 2 || len(row.Residency) != 2 {
		t.Fatalf("round-tripped row = %+v", row)
	}

	var csv bytes.Buffer
	if err := ts.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	out := csv.String()
	header := strings.SplitN(out, "\n", 2)[0]
	if !strings.HasPrefix(header, "time_ms,power_watts,") || !strings.Contains(header, "resid_1.2") || !strings.Contains(header, "resid_2.7") {
		t.Fatalf("CSV header = %q", header)
	}
	if got := strings.Count(out, "\n"); got != 3 {
		t.Fatalf("CSV has %d lines, want header + 2 rows", got)
	}
}

func TestTimelineHandler(t *testing.T) {
	ts := NewTimeseries(100, []float64{2.7}, 4)
	for k := 0; k < 3; k++ {
		ts.Append(sampleRow(k))
	}
	h := TimelineHandler(ts, 2)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/timeline", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var payload struct {
		IntervalMs float64         `json:"interval_ms"`
		FreqsGHz   []float64       `json:"freqs_ghz"`
		Total      uint64          `json:"total"`
		Samples    []TimeseriesRow `json:"samples"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	if payload.IntervalMs != 100 || payload.Total != 3 || len(payload.Samples) != 2 {
		t.Fatalf("payload = %+v (default n must cap samples at 2)", payload)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/timeline?n=1", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.Samples) != 1 || payload.Samples[0].TimeMs != 300 {
		t.Fatalf("?n=1 returned %+v, want just the newest row", payload.Samples)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/timeline?n=bogus", nil))
	if rec.Code != 400 {
		t.Fatalf("bad n: status %d, want 400", rec.Code)
	}
}

// TestWritePrometheusSortedChildren pins the exposition-order contract:
// children within a family render in sorted label-set order regardless of
// registration (first-touch) order, so two registries that reached the same
// state along different paths expose byte-identical text.
func TestWritePrometheusSortedChildren(t *testing.T) {
	build := func(order []int) string {
		reg := NewRegistry()
		for _, shard := range order {
			reg.Counter("gemini_test_route_total", "routes", L("shard", string(rune('0'+shard)))).Add(uint64(shard))
		}
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	a := build([]int{0, 1, 2})
	b := build([]int{2, 0, 1})
	if a != b {
		t.Fatalf("exposition depends on registration order:\n%s\nvs\n%s", a, b)
	}
	first := strings.Index(a, `shard="0"`)
	last := strings.Index(a, `shard="2"`)
	if first < 0 || last < 0 || first > last {
		t.Fatalf("children not in sorted label order:\n%s", a)
	}
}
