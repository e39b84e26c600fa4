package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

// The default latency buckets must resolve sub-millisecond phases (queue
// waits and initial-frequency steps sit well under 1 ms at low load).
func TestDefaultLatencyBucketsSubMillisecond(t *testing.T) {
	subMs := 0
	for _, b := range DefaultLatencyBuckets {
		if b < 1 {
			subMs++
		}
	}
	if subMs < 3 {
		t.Fatalf("only %d sub-ms default buckets: %v", subMs, DefaultLatencyBuckets)
	}
	reg := NewRegistry()
	h := reg.Histogram("lat_ms", "latency", nil)
	h.Observe(0.07)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `le="0.1"} 1`) {
		t.Errorf("0.07 ms observation not resolved by a sub-ms bucket:\n%s", buf.String())
	}
}

// Explicit histogram bounds override DefaultLatencyBuckets, and the registry
// copies and sorts them.
func TestHistogramExplicitBounds(t *testing.T) {
	bounds := []float64{10, 1, 5} // deliberately unsorted
	reg := NewRegistry()
	h := reg.Histogram("h", "h", bounds)
	bounds[0] = 99 // the registry must have copied, not aliased

	for _, v := range []float64{0.5, 3, 7, 50} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`h_bucket{le="1"} 1`,
		`h_bucket{le="5"} 2`,
		`h_bucket{le="10"} 3`,
		`h_bucket{le="+Inf"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, `le="99"`) {
		t.Error("registry aliased the caller's bounds slice")
	}
}
