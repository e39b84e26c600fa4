package sim

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"gemini/internal/cpu"
	"gemini/internal/telemetry"
)

// timelineJSONL renders a series to its canonical JSONL export — the byte
// representation the serial-vs-sharded identity contract is stated over.
func timelineJSONL(t *testing.T, ts *telemetry.Timeseries) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ts.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTimeseriesDisabledAddsNoAllocsPerRequest is the zero-alloc guard for
// the sampler hooks: with Config.Series nil the per-request marginal cost of
// the timeline instrumentation must be a handful of pointer tests and no
// allocations — same contract, and same marginal-allocation methodology, as
// the decision tracer's TestTelemetryDisabledAddsNoAllocsPerRequest.
func TestTimeseriesDisabledAddsNoAllocsPerRequest(t *testing.T) {
	cfg := DefaultConfig()
	const n = 600
	wlA := traceWorkload(n, 29)
	wlB := traceWorkload(2*n, 29)
	reset := resetWorkload
	pol := &FixedPolicy{F: cpu.FDefault}
	allocsA := testing.AllocsPerRun(20, func() { reset(wlA); Run(cfg, wlA, pol) })
	allocsB := testing.AllocsPerRun(20, func() { reset(wlB); Run(cfg, wlB, pol) })
	perReq := (allocsB - allocsA) / float64(n)
	if perReq > 0.05 {
		t.Errorf("sampler-disabled path allocates %.3f allocs/request (n: %.0f, 2n: %.0f)",
			perReq, allocsA, allocsB)
	}
}

// TestTimeseriesSingleRun pins the single-core sampler semantics: one row
// per boundary at bit-exact k·interval timestamps (final row clamped to the
// horizon), lifecycle counts that sum to the workload's totals, residency
// fractions that partition each window, and ordered windowed percentiles.
func TestTimeseriesSingleRun(t *testing.T) {
	const intervalMs = 25.0
	wl := traceWorkload(300, 7)
	cfg := DefaultConfig()
	cfg.Series = NewRunTimeseries(cfg.Ladder, wl.DurationMs, intervalMs)
	res := Run(cfg, wl, &FixedPolicy{F: cpu.FDefault})

	rows := cfg.Series.Rows()
	want := telemetry.SampleCount(wl.DurationMs, intervalMs)
	if len(rows) != want {
		t.Fatalf("rows = %d, want SampleCount = %d", len(rows), want)
	}
	var arrivals, completions, drops uint64
	prev := 0.0
	for k, row := range rows {
		b := float64(k+1) * intervalMs
		if b > wl.DurationMs {
			b = wl.DurationMs
		}
		if row.TimeMs != b {
			t.Fatalf("row %d boundary = %v, want %v", k, row.TimeMs, b)
		}
		arrivals += row.Arrivals
		completions += row.Completions
		drops += row.Drops
		sum := 0.0
		for _, r := range row.Residency {
			sum += r
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d residency sums to %v, want 1", k, sum)
		}
		if row.P50Ms > row.P95Ms || row.P95Ms > row.P99Ms {
			t.Fatalf("row %d percentiles not ordered: p50=%v p95=%v p99=%v",
				k, row.P50Ms, row.P95Ms, row.P99Ms)
		}
		if row.PowerW <= 0 {
			t.Fatalf("row %d modeled power %v, want > 0", k, row.PowerW)
		}
		if row.TimeMs <= prev {
			t.Fatalf("row %d time %v not increasing past %v", k, row.TimeMs, prev)
		}
		prev = row.TimeMs
	}
	if int(arrivals) != len(wl.Requests) {
		t.Errorf("windowed arrivals sum to %d, want %d", arrivals, len(wl.Requests))
	}
	inHorizon := 0
	for _, r := range wl.Requests {
		if r.Done && !r.Dropped && r.FinishMs <= wl.DurationMs {
			inHorizon++
		}
	}
	if int(completions) != inHorizon {
		t.Errorf("windowed completions sum to %d, want %d in-horizon completions", completions, inHorizon)
	}
	if drops != uint64(res.Dropped) && res.Dropped == 0 && drops != 0 {
		t.Errorf("windowed drops sum to %d, result says %d", drops, res.Dropped)
	}
}

// TestPowerSeries: the timeline's power column conserves energy. On a run
// whose requests all finish inside the horizon, Σ PowerW·dt over the rows is
// the run's EnergyMJ — with frequency switches between ticks, idle
// stretches, and a horizon that is not a multiple of the interval.
func TestPowerSeries(t *testing.T) {
	wl := traceWorkload(80, 5)
	cfg := DefaultConfig()
	cfg.Series = NewRunTimeseries(cfg.Ladder, wl.DurationMs, 7)
	res := Run(cfg, wl, &chaosTimelinePolicy{})
	for _, r := range wl.Requests {
		if !r.Done || r.FinishMs > wl.DurationMs {
			t.Fatalf("request %d did not finish inside the horizon; the fixture must", r.ID)
		}
	}
	sum, prev := 0.0, 0.0
	for _, row := range cfg.Series.Rows() {
		sum += row.PowerW * (row.TimeMs - prev)
		prev = row.TimeMs
	}
	if prev != wl.DurationMs {
		t.Fatalf("rows end at %v, want the horizon %v", prev, wl.DurationMs)
	}
	if math.Abs(sum-res.EnergyMJ) > 1e-9*res.EnergyMJ {
		t.Errorf("rows integrate to %v mJ, the run drew %v", sum, res.EnergyMJ)
	}
}

// TestPowerSeriesPartialLastWindow: a horizon that is not a multiple of the
// interval ends in a short window, and that row reads the watts drawn in it,
// not its energy spread over a whole interval.
func TestPowerSeriesPartialLastWindow(t *testing.T) {
	wl := mkWorkload(50, 95, [2]float64{0, 27}) // busy for 10 ms, then idle
	cfg := DefaultConfig()
	cfg.Series = NewRunTimeseries(cfg.Ladder, wl.DurationMs, 10)
	Run(cfg, wl, &FixedPolicy{F: cpu.FDefault})
	rows := cfg.Series.Rows()
	last := rows[len(rows)-1]
	if len(rows) != 10 || last.TimeMs != 95 {
		t.Fatalf("%d rows ending at %v, want 10 ending at 95", len(rows), last.TimeMs)
	}
	if idle := cfg.Power.CoreW(cpu.FDefault, false); math.Abs(last.PowerW-idle) > 1e-9*idle {
		t.Errorf("the 5 ms last window reads %v W, an idle core draws %v W", last.PowerW, idle)
	}
	if rows[0].PowerW <= last.PowerW {
		t.Errorf("busy window %v W <= idle window %v W", rows[0].PowerW, last.PowerW)
	}
}

// TestTimeseriesEnginesEquivalent extends the engine-equivalence contract to
// the sampler: the heap and linear engines must produce byte-identical
// timeline exports (the reserved timer is intercepted identically in both
// loops, before any policy sees it).
func TestTimeseriesEnginesEquivalent(t *testing.T) {
	run := func(linear bool) []byte {
		wl := traceWorkload(400, 11)
		cfg := DefaultConfig()
		cfg.linear = linear
		cfg.Series = NewRunTimeseries(cfg.Ladder, wl.DurationMs, 40)
		Run(cfg, wl, &chaosTimelinePolicy{})
		return timelineJSONL(t, cfg.Series)
	}
	hp, lin := run(false), run(true)
	if !bytes.Equal(hp, lin) {
		t.Fatalf("heap and linear engines produced different timelines (%d vs %d bytes)",
			len(hp), len(lin))
	}
}

// chaosTimelinePolicy mixes timers (tag 0), planned changes, and frequency
// switches so the sampler's reserved timer has to coexist with a busy event
// queue.
type chaosTimelinePolicy struct{ flip bool }

func (p *chaosTimelinePolicy) Name() string { return "chaos-timeline" }
func (p *chaosTimelinePolicy) Init(s *Sim)  { s.SetTimer(5, 0) }
func (p *chaosTimelinePolicy) OnArrival(s *Sim, r *Request) {
	if p.flip {
		s.SetFreq(s.Ladder().Min())
	} else {
		s.SetFreq(s.Ladder().Max())
	}
	p.flip = !p.flip
	s.PlanFreqChange(s.Now()+3, s.Ladder().Max())
}
func (p *chaosTimelinePolicy) OnStart(s *Sim, r *Request)     {}
func (p *chaosTimelinePolicy) OnDeparture(s *Sim, r *Request) {}
func (p *chaosTimelinePolicy) OnTimer(s *Sim, tag int64) {
	if tag != 0 {
		panic(fmt.Sprintf("policy observed reserved timer tag %d", tag))
	}
	s.SetTimer(s.Now()+7, 0)
}

// TestTopologyTimelineWorkersIdentical is the tentpole's determinism claim:
// the merged cluster timeline is byte-identical between the serial and
// sharded topology runs under every router, capped and uncapped.
func TestTopologyTimelineWorkersIdentical(t *testing.T) {
	run := func(router Router, capW float64, workers int) []byte {
		wl := clusterWorkload(400, 2, 6, 23)
		cfg := DefaultConfig()
		cfg.Series = NewRunTimeseries(cfg.Ladder, wl.DurationMs, 50)
		tc := TopologyConfig{
			Sim:       cfg,
			Topology:  Topology{Shards: 3, ReplicasPerShard: 2},
			Router:    router,
			Seed:      99,
			PowerCapW: capW,
		}
		RunTopologyWorkers(tc, wl, workers, mkCountingPolicy)
		return timelineJSONL(t, cfg.Series)
	}
	for _, name := range RouterNames {
		router, err := RouterByName(name)
		if err != nil {
			t.Fatal(err)
		}
		// 16 W binds hard for six cores (modeled floor ≈12.4 W, max ≈22.5 W).
		for _, capW := range []float64{0, 16} {
			serial := run(router, capW, 1)
			if len(serial) == 0 {
				t.Fatalf("router=%s cap=%v: empty timeline", name, capW)
			}
			for _, workers := range []int{2, 4, 9} {
				if sharded := run(router, capW, workers); !bytes.Equal(serial, sharded) {
					t.Fatalf("router=%s cap=%v workers=%d: timeline diverges from serial",
						name, capW, workers)
				}
			}
		}
	}
}

// TestClusterTimelineWorkersIdentical is the same identity for the broker
// cluster runner.
func TestClusterTimelineWorkersIdentical(t *testing.T) {
	run := func(workers int) []byte {
		wl := clusterWorkload(500, 1.5, 6, 41)
		cfg := DefaultConfig()
		cfg.Series = NewRunTimeseries(cfg.Ladder, wl.DurationMs, 50)
		RunClusterWorkers(cfg, wl, 6, workers, func(int) Policy { return &FixedPolicy{F: cpu.FDefault} })
		return timelineJSONL(t, cfg.Series)
	}
	serial := run(1)
	if len(serial) == 0 {
		t.Fatal("empty cluster timeline")
	}
	for _, workers := range []int{2, 5} {
		if sharded := run(workers); !bytes.Equal(serial, sharded) {
			t.Fatalf("workers=%d: cluster timeline diverges from serial", workers)
		}
	}
}

// TestTopologyTimelineMatchesSingleRun checks the merge arithmetic against
// the raw sampler: a 1×1 topology's merged timeline must equal the plain
// single-core run on the same workload — power offset by exactly the uncore
// wattage, every other column (percentiles included, which the merge
// recomputes from request finish times) identical.
func TestTopologyTimelineMatchesSingleRun(t *testing.T) {
	const intervalMs = 40.0
	mk := func() (*Workload, Config) {
		wl := clusterWorkload(300, 3, 6, 17)
		cfg := DefaultConfig()
		cfg.Series = NewRunTimeseries(cfg.Ladder, wl.DurationMs, intervalMs)
		return wl, cfg
	}

	wlT, cfgT := mk()
	tc := TopologyConfig{Sim: cfgT, Topology: Topology{Shards: 1, ReplicasPerShard: 1}, Seed: 1}
	RunTopologyWorkers(tc, wlT, 1, func(int) Policy { return &FixedPolicy{F: cpu.FDefault} })

	wlS, cfgS := mk()
	Run(cfgS, wlS, &FixedPolicy{F: cpu.FDefault})

	topo, single := cfgT.Series.Rows(), cfgS.Series.Rows()
	if len(topo) != len(single) {
		t.Fatalf("row counts differ: topology %d vs single %d", len(topo), len(single))
	}
	uncore := cfgT.Power.UncoreW
	for k := range topo {
		a, b := topo[k], single[k]
		if math.Abs(a.PowerW-(b.PowerW+uncore)) > 1e-9 {
			t.Fatalf("row %d power: topology %v, single+uncore %v", k, a.PowerW, b.PowerW+uncore)
		}
		a.PowerW, b.PowerW = 0, 0
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("row %d differs beyond uncore:\n topology: %+v\n single:   %+v", k, a, b)
		}
	}
}

// TestTimelineCapConsistency is the power-cap/timeline consistency contract:
// the throttle column integrated over the run equals both the topology
// result's counter and the exported gemini_cluster_cap_throttle_total, and
// the coordinator's modeled watts obey the cap invariant sample-by-sample
// (never above max(cap, all-floor power) once the cap engages).
func TestTimelineCapConsistency(t *testing.T) {
	reg := telemetry.NewRegistry()
	wl := clusterWorkload(300, 1.5, 6, 13)
	cfg := DefaultConfig()
	cfg.Series = NewRunTimeseries(cfg.Ladder, wl.DurationMs, 30)
	tc := TopologyConfig{
		Sim:       cfg,
		Topology:  Topology{Shards: 3, ReplicasPerShard: 2},
		Router:    RouterPowerAware{},
		Seed:      13,
		PowerCapW: 15, // between the six-core floor (~12.4 W) and max (~22.5 W): must throttle
		Metrics:   telemetry.NewClusterMetrics(reg),
	}
	res := RunTopologyWorkers(tc, wl, 1, func(int) Policy { return &FixedPolicy{F: cpu.FDefault} })
	if res.CapThrottles == 0 {
		t.Fatal("cap never throttled; the fixture is supposed to bind")
	}

	var integral uint64
	bound := math.Max(tc.PowerCapW, ClusterFloorW(cfg.Power, cfg.Ladder, tc.Topology.Cores()))
	sawCapW := false
	for k, row := range cfg.Series.Rows() {
		integral += row.CapThrottles
		if row.CapModeledW > bound+1e-9 {
			t.Fatalf("row %d cap-modeled watts %v exceed invariant bound %v", k, row.CapModeledW, bound)
		}
		if row.CapModeledW > 0 {
			sawCapW = true
		}
	}
	if !sawCapW {
		t.Error("cap-modeled watts column never populated under an active cap")
	}
	if integral != uint64(res.CapThrottles) {
		t.Errorf("throttle series integrates to %d, result counter says %d", integral, res.CapThrottles)
	}

	var expo strings.Builder
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("gemini_cluster_cap_throttle_total %d\n", res.CapThrottles)
	if !strings.Contains(expo.String(), want) {
		t.Errorf("exposition missing %q:\n%s", strings.TrimSpace(want), expo.String())
	}
}
