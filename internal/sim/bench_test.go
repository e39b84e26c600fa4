package sim

import (
	"testing"

	"gemini/internal/cpu"
	"gemini/internal/par"
	"gemini/internal/telemetry"
)

// benchRun is the shared body of the single-ISN benchmark family: a fresh
// 2000-request BenchWorkload per iteration (built outside the timed region),
// run under the config mkCfg yields. The sink benchmarks differ
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

// BenchmarkClusterLargeSharded is the hundreds-of-ISNs cluster benchmark: 288
// cores (24 sockets of 12 ISNs) fed 100k requests under FixedPolicy, on every
// worker. The workload is built per iteration outside the timed region; the
// timed region is dispatch, engine execution, and the deterministic merge.
func BenchmarkClusterLargeSharded(b *testing.B) {
	b.ReportAllocs()
	const cores = 288
	const n = 100000
	var events uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		wl := BenchWorkloadRate(n, int64(i), 25.0/float64(cores))
		b.StartTimer()
		cr := RunClusterWorkers(DefaultConfig(), wl, cores, par.DefaultWorkers(),
			func(int) Policy { return &FixedPolicy{F: cpu.FDefault} })
		events += cr.Events
	}
	reportEventsPerSec(b, events)
}

// BenchmarkRoutePass times the routing pre-pass alone on the ledger cell's
// shape: 8 shards × 3 replicas, the power-aware router and a 40 W cap.
func BenchmarkRoutePass(b *testing.B) {
	wl := BenchWorkloadRate(20000, 1, 25.0/3)
	topo := Topology{Shards: 8, ReplicasPerShard: 3}
	const capW = 40
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st := newRouteState(topo, wl.BudgetMs, cpu.DefaultLadder(), 1)
		coord := newPowerCapCoordinator(capW, 0, cpu.DefaultPowerModel(), st)
		st.route(wl, RouterPowerAware{}, coord)
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)*float64(wl.Len()*topo.Shards)/s, "picks/sec")
	}
}
