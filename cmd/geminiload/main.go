// Command geminiload is an open-loop, coordinated-omission-free load
// generator for the isnserver aggregator. It precomputes a fixed arrival
// schedule from the simulator's partitioned RNG streams (so two runs with the
// same seed and rate offer the exact same load), fires each request at its
// scheduled instant regardless of how slow the server is, and measures every
// latency against the *intended* send time — the discipline that keeps queueing
// delay visible instead of silently absorbed into the arrival process.
//
// Usage:
//
//	isnserver -shards 2 -budget 10 &
//	geminiload -rps 400 -duration 10s -deadline 10
//
// The run ends with a machine-readable SoakReport on stdout (JSON) plus a
// one-line greppable summary on stderr:
//
//	geminiload: rps=400 sent=4003 ok=3847 errors=0 shed=156 p99=87.3ms slo_bad=212 fast_burn=5.31 budget_remaining=0.472
//
// Open-loop semantics: when -max-inflight requests are already outstanding at
// an arrival's scheduled instant the request is shed client-side and counted
// as an SLO-bad event — the generator never blocks the schedule on the server.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"gemini/internal/corpus"
	"gemini/internal/server"
	"gemini/internal/sim"
	"gemini/internal/stats"
	"gemini/internal/telemetry"
)

// arrival is one precomputed schedule slot: when to send (offset from run
// start) and which query from the pool to send.
type arrival struct {
	at    time.Duration
	query int
}

// SoakReport is the machine-readable run summary. Latency percentiles are
// measured from the intended send time (schedule offset), not the actual
// send time, so client-side backpressure cannot hide server queueing.
type SoakReport struct {
	Target      string  `json:"target"`
	RPS         float64 `json:"rps"`
	RampToRPS   float64 `json:"ramp_to_rps,omitempty"`
	DurationSec float64 `json:"duration_sec"`
	DeadlineMs  float64 `json:"deadline_ms"`
	TargetPct   float64 `json:"target_pct"`
	Seed        int64   `json:"seed"`
	MaxInflight int     `json:"max_inflight"`

	Scheduled uint64 `json:"scheduled"`
	Sent      uint64 `json:"sent"`
	OK        uint64 `json:"ok"`
	Errors    uint64 `json:"errors"`
	Shed      uint64 `json:"shed"`

	AchievedRPS float64 `json:"achieved_rps"`
	P50Ms       float64 `json:"p50_ms"`
	P90Ms       float64 `json:"p90_ms"`
	P95Ms       float64 `json:"p95_ms"`
	P99Ms       float64 `json:"p99_ms"`
	P999Ms      float64 `json:"p999_ms"`
	MaxMs       float64 `json:"max_ms"`

	SLO telemetry.SLOSnapshot `json:"slo"`
}

func main() {
	var (
		target   = flag.String("target", "http://127.0.0.1:8080/search", "aggregator search endpoint")
		rps      = flag.Float64("rps", 200, "offered load in requests per second")
		rampTo   = flag.Float64("ramp-to", 0, "linearly ramp the offered rate from -rps to this over -duration (0 = constant)")
		duration = flag.Duration("duration", 10*time.Second, "soak length")
		deadline = flag.Float64("deadline", server.DefaultBudgetMs, "SLO deadline in ms (latency past this counts against the error budget)")
		sloPct   = flag.Float64("slo-target", 99, "SLO target percentile for the burn-rate windows")
		seed     = flag.Int64("seed", 1, "base seed for the arrival schedule and query choice (same seed = same offered load)")
		inflight = flag.Int("max-inflight", 256, "client-side concurrency cap; arrivals past it are shed, not delayed")
		k        = flag.Int("k", 10, "result-set size requested per query")
		timeout  = flag.Duration("timeout", 2*time.Second, "per-request HTTP timeout")
		report   = flag.String("report", "", "also write the JSON SoakReport to this file ('' = stdout only)")
		queries  = flag.Int("query-pool", 512, "distinct queries pre-sampled from the shared corpus vocabulary")
	)
	flag.Parse()
	if *rps <= 0 || *duration <= 0 || *inflight <= 0 || *queries <= 0 {
		fmt.Fprintln(os.Stderr, "geminiload: -rps, -duration, -max-inflight and -query-pool must be positive")
		os.Exit(2)
	}

	// Everything random is precomputed here, before the first wall-clock
	// read: the arrival schedule from the Workload stream, the query choices
	// from the Sched stream. The run loop only consumes the fixed plan.
	rng := sim.NewPartitionedRNG(*seed)
	pool := buildQueryPool(rng.Seed(), *queries)
	schedule := buildSchedule(rng, *rps, *rampTo, *duration, *queries)

	run := newRunner(*target, *k, *timeout, *inflight, telemetry.SLOConfig{
		DeadlineMs: *deadline,
		TargetPct:  *sloPct,
	})
	run.drive(schedule, pool)

	rep := run.report(schedule, *duration)
	rep.Target = *target
	rep.RPS = *rps
	rep.RampToRPS = *rampTo
	rep.DeadlineMs = *deadline
	rep.TargetPct = *sloPct
	rep.Seed = *seed
	rep.MaxInflight = *inflight

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "geminiload: marshal report:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if *report != "" {
		if err := os.WriteFile(*report, append(out, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "geminiload: write report:", err)
			os.Exit(1)
		}
	}
	fastBurnRate := 0.0
	if len(rep.SLO.Windows) > 0 {
		fastBurnRate = rep.SLO.Windows[0].BurnRate
	}
	fmt.Fprintf(os.Stderr,
		"geminiload: rps=%g sent=%d ok=%d errors=%d shed=%d p99=%.1fms slo_bad=%d fast_burn=%.2f budget_remaining=%.3f\n",
		*rps, rep.Sent, rep.OK, rep.Errors, rep.Shed, rep.P99Ms, rep.SLO.Bad, fastBurnRate, rep.SLO.BudgetRemaining)
}

// buildQueryPool samples n query strings from the same corpus family the
// isnserver shards index (SmallSpec, shard-0 seed), so offered queries hit
// real vocabulary terms instead of scoring empty.
func buildQueryPool(seed int64, n int) []string {
	spec := corpus.SmallSpec()
	spec.Seed = 1 // matches isnserver shard 0
	c := corpus.Generate(spec)
	gen := corpus.NewQueryGen(c, seed+100)
	pool := make([]string, n)
	for i := range pool {
		pool[i] = gen.Next().Text
	}
	return pool
}

// buildSchedule draws the full open-loop arrival plan: exponential
// inter-arrivals at the (possibly ramping) offered rate, plus a query-pool
// index per arrival. Deterministic in the partitioned RNG's seed.
func buildSchedule(rng *sim.PartitionedRNG, rps, rampTo float64, d time.Duration, poolSize int) []arrival {
	wl := rng.Workload()
	sched := rng.Sched()
	horizon := d.Seconds()
	var plan []arrival
	t := 0.0
	for {
		rate := rps
		if rampTo > 0 {
			rate = rps + (rampTo-rps)*(t/horizon)
		}
		t += wl.ExpFloat64() / rate
		if t >= horizon {
			return plan
		}
		plan = append(plan, arrival{
			at:    time.Duration(t * float64(time.Second)),
			query: sched.Intn(poolSize),
		})
	}
}

// runner executes a precomputed schedule against the target and folds every
// outcome into the SLO tracker and the latency reservoir.
type runner struct {
	target string
	k      int
	client *http.Client
	sem    chan struct{}

	mu      sync.Mutex
	tracker *telemetry.SLOTracker
	t0      time.Time
	lats    []float64
	sent    uint64
	ok      uint64
	errors  uint64
	shed    uint64
	wg      sync.WaitGroup
}

func newRunner(target string, k int, timeout time.Duration, maxInflight int, cfg telemetry.SLOConfig) *runner {
	return &runner{
		target:  target,
		k:       k,
		client:  &http.Client{Timeout: timeout},
		sem:     make(chan struct{}, maxInflight),
		tracker: telemetry.NewSLOTracker(cfg),
	}
}

// drive walks the schedule in real time. The dispatcher never blocks on the
// server: if the in-flight cap is hit at an arrival's instant the request is
// shed (counted SLO-bad) and the schedule marches on.
func (r *runner) drive(plan []arrival, pool []string) {
	bodies := make([][]byte, len(pool))
	for i, q := range pool {
		b, err := json.Marshal(map[string]any{"query": q, "k": r.k})
		if err != nil {
			fmt.Fprintln(os.Stderr, "geminiload: marshal query:", err)
			os.Exit(1)
		}
		bodies[i] = b
	}
	r.t0 = time.Now()
	for _, a := range plan {
		if wait := time.Until(r.t0.Add(a.at)); wait > 0 {
			time.Sleep(wait)
		}
		select {
		case r.sem <- struct{}{}:
		default:
			r.mu.Lock()
			r.shed++
			r.tracker.ObserveBad(r.nowMsLocked())
			r.mu.Unlock()
			continue
		}
		r.wg.Add(1)
		go r.fire(a, bodies[a.query])
	}
	r.wg.Wait()
}

// fire sends one scheduled request and records its outcome. Latency is
// measured against the intended send instant (t0 + schedule offset), which
// charges any client-side dispatch lag to the request instead of hiding it.
func (r *runner) fire(a arrival, body []byte) {
	defer r.wg.Done()
	defer func() { <-r.sem }()
	intended := r.t0.Add(a.at)
	resp, err := r.client.Post(r.target, "application/json", bytes.NewReader(body))
	httpOK := false
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		httpOK = resp.StatusCode == http.StatusOK
	}
	latMs := float64(time.Since(intended)) / float64(time.Millisecond)

	r.mu.Lock()
	defer r.mu.Unlock()
	r.sent++
	if !httpOK {
		r.errors++
		r.tracker.ObserveBad(r.nowMsLocked())
		return
	}
	r.ok++
	r.lats = append(r.lats, latMs)
	r.tracker.Observe(r.nowMsLocked(), latMs)
}

// nowMsLocked converts the wall clock to tracker time (ms since run start).
// Callers hold r.mu.
func (r *runner) nowMsLocked() float64 {
	return float64(time.Since(r.t0)) / float64(time.Millisecond)
}

// report assembles the SoakReport after the run drains.
func (r *runner) report(plan []arrival, d time.Duration) SoakReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := SoakReport{
		DurationSec: d.Seconds(),
		Scheduled:   uint64(len(plan)),
		Sent:        r.sent,
		OK:          r.ok,
		Errors:      r.errors,
		Shed:        r.shed,
	}
	elapsed := time.Since(r.t0).Seconds()
	if elapsed > 0 {
		rep.AchievedRPS = float64(r.sent) / elapsed
	}
	if len(r.lats) > 0 {
		stats.SortAscending(r.lats)
		rep.P50Ms = stats.PercentileSorted(r.lats, 50)
		rep.P90Ms = stats.PercentileSorted(r.lats, 90)
		rep.P95Ms = stats.PercentileSorted(r.lats, 95)
		rep.P99Ms = stats.PercentileSorted(r.lats, 99)
		rep.P999Ms = stats.PercentileSorted(r.lats, 99.9)
		rep.MaxMs = r.lats[len(r.lats)-1]
	}
	rep.SLO = r.tracker.Snapshot(r.nowMsLocked(), 60)
	return rep
}
