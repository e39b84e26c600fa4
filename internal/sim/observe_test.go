package sim_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"gemini/internal/cpu"
	"gemini/internal/harness"
	"gemini/internal/sim"
	"gemini/internal/telemetry"
	"gemini/internal/trace"
)

// sameBits reports whether two float slices hold the same bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestObservationDoesNotPerturb: attaching the timeline sampler reads a run
// without changing it. For every paper policy and FixedPolicy, on one ISN,
// on the broker cluster at one and four workers and on the capped 8×3
// power-aware cell, the sampled run's results equal the unsampled run's bit
// for bit — every count, every latency, the energy and the coordinator's
// watts — except Events, which counts one more event per core and tick.
func TestObservationDoesNotPerturb(t *testing.T) {
	p := harness.Shared(true)
	const durationMs, intervalMs = 8_000, 100
	ticks := uint64(telemetry.SampleCount(durationMs, intervalMs))
	series := func(cfg *sim.Config, on bool) {
		if on {
			cfg.Series = sim.NewRunTimeseries(cfg.Ladder, durationMs, intervalMs)
		}
	}
	checkRun := func(what string, off, on *sim.Result) {
		t.Helper()
		if on.Events-off.Events != ticks {
			t.Errorf("%s: sampling added %d events, want %d", what, on.Events-off.Events, ticks)
		}
		if !sameBits(off.Latencies, on.Latencies) || math.Float64bits(off.EnergyMJ) != math.Float64bits(on.EnergyMJ) {
			t.Errorf("%s: sampling moved latencies or energy (%v vs %v mJ)", what, off.EnergyMJ, on.EnergyMJ)
		}
		onCopy := *on
		onCopy.Events = off.Events
		if !reflect.DeepEqual(off, &onCopy) {
			t.Errorf("%s: sampling changed a result field other than Events", what)
		}
	}

	names := append([]string{"Fixed"}, harness.PolicyNames...)
	mk := func(name string) sim.Policy {
		if name == "Fixed" {
			return &sim.FixedPolicy{F: cpu.FDefault}
		}
		return p.MustPolicy(name)
	}
	for _, name := range names {
		single := func(on bool) *sim.Result {
			cfg := p.SimConfig()
			series(&cfg, on)
			tr := trace.GenFixedRPS(100*p.Opt.ShardFraction, durationMs, 3)
			return sim.Run(cfg, p.Workload(tr.Arrivals, durationMs, 5), mk(name))
		}
		checkRun(name+", sim.Run", single(false), single(true))

		const cores = 4
		for _, workers := range []int{1, 4} {
			cluster := func(on bool) *sim.ClusterResult {
				cfg := p.SimConfig()
				series(&cfg, on)
				tr := trace.GenFixedRPS(100*p.Opt.ShardFraction*cores, durationMs, 4)
				return sim.RunClusterWorkers(cfg, p.Workload(tr.Arrivals, durationMs, 6), cores, workers,
					func(int) sim.Policy { return mk(name) })
			}
			off, on := cluster(false), cluster(true)
			what := fmt.Sprintf("%s, RunClusterWorkers workers=%d", name, workers)
			for c := range off.PerCore {
				checkRun(what, off.PerCore[c], on.PerCore[c])
			}
			if on.Events-off.Events != cores*ticks || !sameBits(off.QueryLatencies, on.QueryLatencies) ||
				math.Float64bits(off.EnergyMJ) != math.Float64bits(on.EnergyMJ) ||
				off.Total != on.Total || off.Completed != on.Completed || off.Dropped != on.Dropped || off.Violations != on.Violations {
				t.Errorf("%s: sampling changed the cluster result", what)
			}
		}

		topo := sim.Topology{Shards: 8, ReplicasPerShard: 3}
		cell := func(on bool) *sim.TopologyResult {
			cfg := p.SimConfig()
			series(&cfg, on)
			tc := sim.TopologyConfig{Sim: cfg, Topology: topo, Router: sim.RouterPowerAware{}, Seed: 1, PowerCapW: 40}
			tr := trace.GenFixedRPS(100*p.Opt.ShardFraction*float64(topo.ReplicasPerShard), durationMs, 7)
			return sim.RunTopologyWorkers(tc, p.Workload(tr.Arrivals, durationMs, 8), 2, func(int) sim.Policy { return mk(name) })
		}
		off, on := cell(false), cell(true)
		what := name + ", capped 8x3 power-aware cell"
		if off.CapThrottles == 0 {
			t.Errorf("%s: the 40 W cap never bound", what)
		}
		for c := range off.PerCore {
			checkRun(what, off.PerCore[c], on.PerCore[c])
		}
		onCopy := *on
		onCopy.Events, onCopy.PerCore = off.Events, off.PerCore
		if on.Events-off.Events != uint64(topo.Cores())*ticks || !reflect.DeepEqual(off, &onCopy) ||
			!sameBits(off.QueryLatencies, on.QueryLatencies) || !sameBits(off.ModeledPowerW, on.ModeledPowerW) ||
			math.Float64bits(off.EnergyMJ) != math.Float64bits(on.EnergyMJ) {
			t.Errorf("%s: sampling changed the topology result: events %d vs %d, energy %v vs %v",
				what, off.Events, on.Events, off.EnergyMJ, on.EnergyMJ)
		}
	}
}
