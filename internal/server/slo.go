package server

import (
	"net/http"
	"strconv"
	"time"

	"gemini/internal/telemetry"
)

// Live SLO tracking: the wall-clock binding of telemetry.SLOTracker. The
// tracker itself never reads a clock, so the simulator's runs through it stay
// deterministic; this file supplies every timestamp, mirrors the tracker's
// counters into gemini_slo_* Prometheus families, and serves /debug/slo.

// SLO metric family names, one set per listener (distinguished by the
// listener label so the aggregator and every ISN share one registry page).
const (
	sloGoodName   = "gemini_slo_good_total"
	sloGoodHelp   = "Requests that met the SLO deadline, by listener."
	sloBadName    = "gemini_slo_bad_total"
	sloBadHelp    = "Requests that violated the SLO deadline, errored, or were shed, by listener."
	sloBurnName   = "gemini_slo_burn_rate"
	sloBurnHelp   = "Error-budget burn rate over the trailing window (bad fraction / budgeted fraction; 1.0 = budget consumed exactly as provisioned), by listener and window."
	sloBudgetName = "gemini_slo_budget_remaining"
	sloBudgetHelp = "Unconsumed fraction of the cumulative error budget (1 = untouched, <= 0 = blown), by listener."
	sloDeadName   = "gemini_slo_deadline_ms"
	sloDeadHelp   = "Configured SLO latency deadline in milliseconds, by listener."
	sloTargetName = "gemini_slo_target_pct"
	sloTargetHelp = "Configured SLO target percentile, by listener."
)

// SLOBinding wires one listener to an SLOTracker: request paths call Observe
// / ObserveBad (cheap: one bucket increment plus two atomic counters), and
// scrape/debug paths pull burn-rate snapshots. All methods are nil-safe, so
// an unconfigured listener pays a single pointer test.
type SLOBinding struct {
	tracker *telemetry.SLOTracker
	t0      time.Time

	good, bad *telemetry.Counter
	burn      []*telemetry.Gauge // index-aligned with the config's windows
	budget    *telemetry.Gauge
}

// NewSLOBinding builds a tracker with cfg (zero fields take the telemetry
// defaults: 40 ms deadline, p99, 1 s/10 s/60 s windows) and registers its
// gemini_slo_* families on reg labeled listener=<listener>. The burn-rate
// and budget gauges are refreshed at scrape time via MetricsWithSLO or
// Refresh.
func NewSLOBinding(reg *telemetry.Registry, listener string, cfg telemetry.SLOConfig) *SLOBinding {
	tracker := telemetry.NewSLOTracker(cfg)
	eff := tracker.Config()
	// One listener address per serving process, chosen from static config —
	// the label set is bounded by deployment size, not by traffic.
	l := telemetry.L("listener", listener)
	b := &SLOBinding{
		tracker: tracker,
		t0:      time.Now(),
		good:    reg.Counter(sloGoodName, sloGoodHelp, l),
		bad:     reg.Counter(sloBadName, sloBadHelp, l),
		budget:  reg.Gauge(sloBudgetName, sloBudgetHelp, l),
	}
	for _, w := range eff.WindowsMs {
		b.burn = append(b.burn, reg.Gauge(sloBurnName, sloBurnHelp, l,
			telemetry.L("window_ms", strconv.FormatFloat(w, 'g', -1, 64))))
	}
	b.budget.Set(1)
	reg.Gauge(sloDeadName, sloDeadHelp, l).Set(eff.DeadlineMs)
	reg.Gauge(sloTargetName, sloTargetHelp, l).Set(eff.TargetPct)
	return b
}

// nowMs is the binding's clock: wall milliseconds since the binding was
// created, the timescale every tracker timestamp lives on.
func (b *SLOBinding) nowMs() float64 { return msSince(b.t0) }

// Observe classifies one served request by its wall latency.
func (b *SLOBinding) Observe(latencyMs float64) {
	if b == nil {
		return
	}
	b.tracker.Observe(b.nowMs(), latencyMs)
	if latencyMs <= b.tracker.Config().DeadlineMs {
		b.good.Inc()
	} else {
		b.bad.Inc()
	}
}

// ObserveBad records one request that burned budget without a latency — a
// shed request, a queue-full rejection, an aggregation that failed outright.
func (b *SLOBinding) ObserveBad() {
	if b == nil {
		return
	}
	b.tracker.ObserveBad(b.nowMs())
	b.bad.Inc()
}

// Snapshot returns the burn view at the current wall instant, with at most
// n trailing buckets.
func (b *SLOBinding) Snapshot(n int) telemetry.SLOSnapshot {
	if b == nil {
		return (*telemetry.SLOTracker)(nil).Snapshot(0, n)
	}
	return b.tracker.Snapshot(b.nowMs(), n)
}

// Refresh recomputes the burn-rate and budget-remaining gauges from the
// current windows. Called at scrape time so the gauges decay as windows
// empty even when no requests arrive.
func (b *SLOBinding) Refresh() {
	if b == nil {
		return
	}
	s := b.Snapshot(1)
	for i, w := range s.Windows {
		if i < len(b.burn) {
			b.burn[i].Set(w.BurnRate)
		}
	}
	b.budget.Set(s.BudgetRemaining)
}

// Handler serves the binding's burn view as /debug/slo JSON (?n= bounds the
// trailing bucket list with the shared ClampDebugN semantics).
func (b *SLOBinding) Handler(defaultN int) http.Handler {
	return telemetry.SLOHandler(b.Snapshot, defaultN)
}

// MetricsWithSLO wraps the registry exposition so every binding's burn-rate
// and budget gauges are recomputed at scrape time — a scrape after traffic
// stops must show the short windows draining back to zero burn.
func MetricsWithSLO(reg *telemetry.Registry, bindings ...*SLOBinding) http.Handler {
	inner := telemetry.MetricsHandler(reg)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for _, b := range bindings {
			b.Refresh()
		}
		inner.ServeHTTP(w, r)
	})
}
