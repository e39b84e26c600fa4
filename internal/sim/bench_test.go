package sim

import (
	"testing"

	"gemini/internal/cpu"
	"gemini/internal/par"
	"gemini/internal/telemetry"
)

// benchRun is the shared body of the single-ISN benchmark family: a fresh
// 2000-request BenchWorkload per iteration (built outside the timed region),
// run under the config mkCfg yields. The sink and engine benchmarks differ
// from BenchmarkRunFixedPolicy only in mkCfg, so each reads against it by
// construction.
func benchRun(b *testing.B, mkCfg func(wl *Workload) Config) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		wl := BenchWorkload(2000, int64(i))
		cfg := mkCfg(wl)
		b.StartTimer()
		res := Run(cfg, wl, &FixedPolicy{F: cpu.FDefault})
		events += res.Events
	}
	reportEventsPerSec(b, events)
}

// reportEventsPerSec attaches the engine-throughput metric, the same unit as
// the ledger's work_per_s on the sim_* workloads (go run ./bench).
func reportEventsPerSec(b *testing.B, events uint64) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)/s, "events/sec")
	}
}

func BenchmarkRunFixedPolicy(b *testing.B) {
	benchRun(b, func(*Workload) Config { return DefaultConfig() })
}

// BenchmarkRunTelemetryEnabled prices the decision-trace hook against
// BenchmarkRunFixedPolicy; the disabled path must cost one nil test per
// lifecycle event and nothing more (TestTelemetryDisabledAddsNoAllocsPerRequest).
func BenchmarkRunTelemetryEnabled(b *testing.B) {
	benchRun(b, func(*Workload) Config {
		cfg := DefaultConfig()
		cfg.Tracer = telemetry.NewTracer(256)
		return cfg
	})
}

// BenchmarkRunSpansEnabled is the same for the phase-span hook
// (TestSpansDisabledAddsNoAllocsPerRequest).
func BenchmarkRunSpansEnabled(b *testing.B) {
	benchRun(b, func(*Workload) Config {
		cfg := DefaultConfig()
		cfg.Spans = telemetry.NewSpanTracer(256)
		return cfg
	})
}

// BenchmarkRunTimeseriesEnabled is the same for the timeline sampler hooks
// (TestTimeseriesDisabledAddsNoAllocsPerRequest). It samples at the 100 ms
// default interval, sized per-workload so the ring never evicts.
func BenchmarkRunTimeseriesEnabled(b *testing.B) {
	benchRun(b, func(wl *Workload) Config {
		cfg := DefaultConfig()
		cfg.Series = NewRunTimeseries(cfg.Ladder, wl.DurationMs, 100)
		return cfg
	})
}

// BenchmarkRunEngineLinear is BenchmarkRunFixedPolicy's workload under the
// reference linear-scan loop. FixedPolicy arms no event at all, so the pair
// bounds the heap engine's bookkeeping overhead at the population real runs
// have (BenchmarkClusterLarge* is the synthetic large-population reading).
func BenchmarkRunEngineLinear(b *testing.B) {
	benchRun(b, func(*Workload) Config {
		cfg := DefaultConfig()
		cfg.linear = true
		return cfg
	})
}

func BenchmarkDispatch(b *testing.B) {
	wl := BenchWorkload(10000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dispatch(wl, 8)
	}
}

func BenchmarkRunCluster(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		wl := BenchWorkload(4000, int64(i))
		b.StartTimer()
		RunClusterWorkers(DefaultConfig(), wl, 4, 1, func(int) Policy { return &FixedPolicy{F: cpu.FDefault} })
	}
}

// timerHeavyPolicy is a synthetic load no shipped policy resembles: 128
// staggered periodic timers stay armed for the whole run and every arrival
// plans a boost-then-restore frequency pair, so well over a hundred events
// are pending per core. Measured populations are far smaller: every
// BENCHMARK.json workload, every geminisim experiment and every policy
// Platform.NewPolicy builds peaks at two or three pending events per core
// (DESIGN.md §9, TestEventPopulationStaysSmall). The benchmark stays to show
// what the heap costs if that ever changes: against the calendar queue it
// replaced it reads 0.61-0.77x here, against the linear reference 5.1-5.3x.
type timerHeavyPolicy struct{ k int }

const timerHeavySlots = 128

func (p *timerHeavyPolicy) Name() string { return "timerheavy" }
func (p *timerHeavyPolicy) Init(s *Sim) {
	s.SetFreq(cpu.FDefault)
	for i := int64(0); i < timerHeavySlots; i++ {
		s.SetTimer(float64(i), i)
	}
}
func (p *timerHeavyPolicy) OnArrival(s *Sim, r *Request) {
	p.k++
	lv := s.Ladder().Levels()
	s.PlanFreqChange(s.Now()+2, lv[p.k%len(lv)])
	s.PlanFreqChange(s.Now()+8, cpu.FDefault)
}
func (p *timerHeavyPolicy) OnStart(*Sim, *Request)     {}
func (p *timerHeavyPolicy) OnDeparture(*Sim, *Request) {}
func (p *timerHeavyPolicy) OnTimer(s *Sim, tag int64) {
	// Re-arm unconditionally: the engine terminates re-arming timers once
	// every request is served and the workload horizon has passed.
	s.SetTimer(s.Now()+timerHeavySlots, tag)
}

// benchClusterLarge is the hundreds-of-ISNs cluster benchmark: 288 cores (24
// sockets of 12 ISNs) fed 100k requests, a timer-heavy controller per core. The workload is built
// per iteration outside the timed region; the timed region is dispatch,
// engine execution, and the deterministic merge.
func benchClusterLarge(b *testing.B, linear bool, workers int) {
	b.ReportAllocs()
	const cores = 288
	const n = 100000
	var events uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		wl := BenchWorkloadRate(n, int64(i), 25.0/float64(cores))
		cfg := DefaultConfig()
		cfg.linear = linear
		b.StartTimer()
		cr := RunClusterWorkers(cfg, wl, cores, workers, func(int) Policy { return &timerHeavyPolicy{} })
		events += cr.Events
	}
	reportEventsPerSec(b, events)
}

func BenchmarkClusterLargeLinear(b *testing.B) { benchClusterLarge(b, true, 1) }
func BenchmarkClusterLargeHeap(b *testing.B)   { benchClusterLarge(b, false, 1) }
func BenchmarkClusterLargeSharded(b *testing.B) {
	benchClusterLarge(b, false, par.DefaultWorkers())
}
