package server

import (
	"math"
	"net/http"
	"runtime"
	"sync"
	"time"

	"gemini/internal/telemetry"
)

// Live timelines: the wall-clock counterpart of the simulator's fixed-interval
// sampler. A listener with a sampler attached holds a telemetry.SampleCursor
// under its own lock and feeds it the same lifecycle calls the engine makes;
// a TimelineSampler ticks on real time (this is the server package — the one
// place wall clocks are allowed), adds the runtime self-telemetry columns and
// has the listener seal the window. Rows use the exact schema the simulated
// exports use, so `/debug/timeline` on a live listener and `geminisim
// -timeline` are read by the same tooling (jq recipes, the HTML dashboard,
// the examples/timeline scripts). Row times are ms since the listener's time
// origin, the one its decision records use.

// timelineSource is a listener a TimelineSampler can drive.
type timelineSource interface {
	// attachTimeline hands the listener the cursor it feeds from now on; nil
	// detaches it.
	attachTimeline(c *telemetry.SampleCursor)
	// sampleTimeline stamps row with the listener's clock and instantaneous
	// gauges and seals the window under the listener's lock.
	sampleTimeline(row telemetry.TimeseriesRow)
}

// TimelineSampler samples one listener on a wall-clock ticker into a
// ring-buffered telemetry.Timeseries.
type TimelineSampler struct {
	ts      *telemetry.Timeseries
	src     timelineSource
	lastMem runtime.MemStats // the previous window's runtime reading
	stop    chan struct{}
	done    chan struct{} // closed when run returns
	once    sync.Once
}

// startTimeline attaches a sampler to src: every interval it seals one row;
// the ring retains the most recent capacity rows. freqsGHz labels the
// residency columns (nil for listeners without a DVFS model). Returns nil on
// an invalid interval or capacity.
func startTimeline(src timelineSource, freqsGHz []float64, interval time.Duration, capacity int) *TimelineSampler {
	ts := telemetry.NewTimeseries(float64(interval)/float64(time.Millisecond), freqsGHz, capacity)
	if ts == nil {
		return nil
	}
	s := &TimelineSampler{ts: ts, src: src, stop: make(chan struct{}), done: make(chan struct{})}
	runtime.ReadMemStats(&s.lastMem)
	src.attachTimeline(ts.StartRun(math.Inf(1)))
	go s.run(interval)
	return s
}

func (s *TimelineSampler) run(interval time.Duration) {
	defer close(s.done)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			s.sample()
		case <-s.stop:
			return
		}
	}
}

// sample seals the current window: the runtime columns here (goroutines at
// the boundary, GC pause and heap-alloc delta across the window), the rest
// in the listener.
func (s *TimelineSampler) sample() {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	s.src.sampleTimeline(telemetry.TimeseriesRow{
		Goroutines:     float64(runtime.NumGoroutine()),
		GCPauseMs:      float64(mem.PauseTotalNs-s.lastMem.PauseTotalNs) / 1e6,
		HeapDeltaBytes: float64(mem.HeapAlloc) - float64(s.lastMem.HeapAlloc),
	})
	s.lastMem = mem
}

// Series exposes the sampled ring (nil-safe).
func (s *TimelineSampler) Series() *telemetry.Timeseries {
	if s == nil {
		return nil
	}
	return s.ts
}

// Handler serves the sampled series as /debug/timeline JSON — the schema
// shared with the simulated exports.
func (s *TimelineSampler) Handler(defaultN int) http.Handler {
	return telemetry.TimelineHandler(s.Series(), defaultN)
}

// Stop terminates the sampling goroutine and detaches the listener's
// cursor, returning once both are done; the ring keeps its rows. Idempotent.
func (s *TimelineSampler) Stop() {
	if s == nil {
		return
	}
	s.once.Do(func() {
		close(s.stop)
		<-s.done
		s.src.attachTimeline(nil)
	})
}

// StartTimeline attaches a wall-clock timeline sampler to the ISN. Attach it
// before serving: requests already in flight are not counted. Residency is
// over the modeled DVFS ladder, time-weighted like the simulator's: the share
// of the window spent at each level, a level holding from the moment a
// query's modeled plan switched to it. Power is the modeled energy drawn
// across the window.
func (n *ISN) StartTimeline(interval time.Duration, capacity int) *TimelineSampler {
	return startTimeline(n, n.ladder.GHz(), interval, capacity)
}

func (n *ISN) attachTimeline(c *telemetry.SampleCursor) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if c != nil {
		c.SetSLODeadline(n.budgetMs())
		// Charged from the time origin: a sampler attached before serving
		// has seen every modeled switch.
		c.SetLevel(n.ladder.Index(n.modelFreq), 0)
	}
	n.tsc = c
}

func (n *ISN) sampleTimeline(row telemetry.TimeseriesRow) {
	n.mu.Lock()
	defer n.mu.Unlock()
	row.TimeMs = msSince(n.t0)
	row.QueueDepth = float64(n.depth)
	if n.depth > 0 {
		row.InFlight = 1 // the single working thread (Fig. 9)
	}
	n.tsc.Sample(row, n.energyMJ)
}

// StartTimeline attaches a wall-clock timeline sampler to the aggregator. The
// aggregator has no DVFS model: its rows carry no power and no residency,
// and its queue depth is the aggregations in flight.
func (a *Aggregator) StartTimeline(interval time.Duration, capacity int) *TimelineSampler {
	return startTimeline(a, nil, interval, capacity)
}

func (a *Aggregator) attachTimeline(c *telemetry.SampleCursor) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if c != nil {
		c.SetSLODeadline(a.budgetMs())
	}
	if a.startedAt.IsZero() {
		a.startedAt = time.Now()
	}
	a.tsc = c
}

func (a *Aggregator) sampleTimeline(row telemetry.TimeseriesRow) {
	a.mu.Lock()
	defer a.mu.Unlock()
	row.TimeMs = msSince(a.startedAt)
	row.QueueDepth = float64(a.inFlight)
	row.InFlight = float64(a.inFlight)
	a.tsc.Sample(row, 0)
}
