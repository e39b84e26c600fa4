package telemetry

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// panicText runs f and returns what it panicked with, or "" if it returned.
func panicText(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = r.(string)
		}
	}()
	f()
	return ""
}

// TestRegisterEnforcesNamingContract holds every family to the naming
// contract where it is first registered: the gemini_ prefix, _total on
// counters, the canonical unit spelling, a non-empty help string. A refused
// family leaves nothing behind.
func TestRegisterEnforcesNamingContract(t *testing.T) {
	cases := []struct {
		kind, name, help string
		want             string // "" = accepted
	}{
		{"counter", "requests_total", "Requests served.", "metric requests_total lacks the gemini_ namespace prefix"},
		{"counter", "reqs", "Requests served.", "metric reqs lacks the gemini_ namespace prefix"},
		{"counter", "gemini_reqs", "Requests served.", "counter gemini_reqs must end in _total"},
		{"gauge", "gemini_latency_msec", "Smoothed latency.", "spells its unit _msec: the canonical suffix is _ms"},
		{"counter", "gemini_busy_nanos_total", "Busy time.", "spells its unit _nanos: the canonical suffix is _ns"},
		{"histogram", "gemini_query_seconds", "Query latency.", "spells its unit _seconds: the canonical suffix is _ms"},
		{"gauge", "gemini_clock_mhz", "Core clock.", "spells its unit _mhz: the canonical suffix is _ghz"},
		{"gauge", "gemini_power_watts", "", "metric gemini_power_watts has an empty help string"},
		{"gauge", "gemini_power_watts", " \t", "metric gemini_power_watts has an empty help string"},

		{"gauge", "gemini_freq_ghz", "Current core frequency.", ""},
		{"counter", "gemini_drops_total", "Dropped requests.", ""},
		{"counter", "gemini_busy_ns_total", "Busy time.", ""},
		{"histogram", "gemini_query_latency_ms", "Query latency.", ""},
		{"gauge", "gemini_slo_burn_rate", "Burn rate.", ""},
	}
	for _, c := range cases {
		reg := NewRegistry()
		got := panicText(func() {
			switch c.kind {
			case "counter":
				reg.Counter(c.name, c.help)
			case "gauge":
				reg.Gauge(c.name, c.help)
			case "histogram":
				reg.Histogram(c.name, c.help, nil)
			}
		})
		if c.want == "" {
			if got != "" {
				t.Errorf("%s %s refused: %s", c.kind, c.name, got)
			}
			continue
		}
		if !strings.Contains(got, c.want) {
			t.Errorf("%s %s: panic %q, want it to contain %q", c.kind, c.name, got, c.want)
		}
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
			t.Errorf("%s %s: a refused family still renders %q (err %v)", c.kind, c.name, buf.String(), err)
		}
	}
}

// TestRegisterCapsLabelSets: a family takes maxChildren label sets and
// refuses the next new one; the ones it holds still resolve.
func TestRegisterCapsLabelSets(t *testing.T) {
	reg := NewRegistry()
	count := func(i int) *Counter {
		return reg.Counter("gemini_hits_total", "Hits.", L("user", strconv.Itoa(i)))
	}
	first := count(0)
	for i := 1; i < maxChildren; i++ {
		count(i)
	}
	if got := panicText(func() { count(maxChildren) }); !strings.Contains(got, "not from a bounded set") {
		t.Fatalf("label set %d: panic %q, want the bounded-set refusal", maxChildren+1, got)
	}
	if got := panicText(func() {
		if count(0) != first {
			t.Error("a held label set resolved to a new counter")
		}
	}); got != "" {
		t.Errorf("a held label set was refused at the cap: %s", got)
	}
}

// blockedWriter is a scrape client that stopped reading: its first Write
// parks until release is closed.
type blockedWriter struct {
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (w *blockedWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return len(p), nil
}

// TestScrapeDoesNotBlockRegistration parks a scrape inside its first write
// and requires registration and a second scrape to finish meanwhile: the
// registry lock is held to copy the family list, not while writing to a
// client that may never read.
func TestScrapeDoesNotBlockRegistration(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("gemini_early_total", "Registered before the scrape.").Inc()
	w := &blockedWriter{entered: make(chan struct{}), release: make(chan struct{})}
	scraped := make(chan error, 1)
	go func() { scraped <- reg.WritePrometheus(w) }()
	<-w.entered

	done := make(chan string, 1)
	go func() {
		reg.Counter("gemini_early_total", "Registered before the scrape.").Inc()
		reg.Gauge("gemini_late", "Registered during the scrape.", L("shard", "1")).Set(2)
		var buf bytes.Buffer
		_ = reg.WritePrometheus(&buf)
		done <- buf.String()
	}()
	select {
	case text := <-done:
		for _, want := range []string{"gemini_early_total 2", `gemini_late{shard="1"} 2`} {
			if !strings.Contains(text, want) {
				t.Errorf("second scrape lacks %q:\n%s", want, text)
			}
		}
	case <-time.After(5 * time.Second):
		t.Error("registration and a second scrape waited on a scrape blocked in Write")
	}
	close(w.release)
	if err := <-scraped; err != nil {
		t.Fatal(err)
	}
}

// TestInstrumentsAllocFree pins the instrument fast paths at zero
// allocations: the engine, the ISN and the aggregator call them per request.
func TestInstrumentsAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("gemini_pin_total", "pin")
	g := r.Gauge("gemini_pin_watts", "pin")
	h := r.Histogram("gemini_pin_ms", "pin", DefaultLatencyBuckets)
	x := 0.0
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(3) }},
		{"Gauge.Add", func() { g.Add(0.5) }},
		{"Gauge.Set", func() { g.Set(x) }},
		{"Histogram.Observe", func() { x += 7.5; h.Observe(x) }},
	} {
		if n := testing.AllocsPerRun(200, tc.f); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", tc.name, n)
		}
	}
}
