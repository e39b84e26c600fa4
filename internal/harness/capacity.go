package harness

import (
	"fmt"

	"gemini/internal/par"
	"gemini/internal/sim"
	"gemini/internal/trace"
)

// CapacitySpec parameterizes the capacity-planning sweep: how many replicas
// per shard, at what offered load, under which cluster power cap does the
// query (straggler) tail stay inside the SLA — the provisioning question the
// shards × replicas topology exists to answer.
type CapacitySpec struct {
	Shards     int
	Replicas   []int     // replicas-per-shard values to sweep
	EngineRPS  []float64 // engine-level offered load values to sweep
	CapsW      []float64 // cluster power caps to sweep; 0 = uncapped
	Router     string    // sim.RouterByName spelling; "" = power-aware
	DurationMs float64
	Seed       int64
}

// CapacityReport runs the replicas × RPS × cap grid over the shards ×
// replicas topology and tabulates query-level quality against modeled
// cluster power. An unknown router is an error.
func (p *Platform) CapacityReport(spec CapacitySpec) (*Report, error) {
	if spec.Shards < 1 {
		spec.Shards = 1
	}
	if len(spec.Replicas) == 0 {
		spec.Replicas = []int{1, 2, 3}
	}
	if len(spec.EngineRPS) == 0 {
		spec.EngineRPS = []float64{40}
	}
	if len(spec.CapsW) == 0 {
		spec.CapsW = []float64{0}
	}
	if spec.Router == "" {
		spec.Router = "power-aware"
	}
	if spec.DurationMs <= 0 {
		spec.DurationMs = 3000
	}

	rep := &Report{
		Title:  "Capacity planning (shards × replicas, power-aware routing)",
		Header: append([]string{"replicas", "rps"}, topologyHeader...),
	}
	for _, replicas := range spec.Replicas {
		for _, rps := range spec.EngineRPS {
			for _, capW := range spec.CapsW {
				cell := TimelineSpec{Shards: spec.Shards, Replicas: replicas, Router: spec.Router, CapW: capW, DurationMs: spec.DurationMs}
				res, err := p.runCell(cell, rps, sim.TopologyConfig{Sim: p.SimConfig(), Seed: spec.Seed})
				if err != nil {
					return nil, err
				}
				rep.AddRow(append([]string{fmt.Sprintf("%d", replicas), f1(rps)},
					p.topologyCells(capW, res)...)...)
			}
		}
	}
	rep.Note("shards=%d, router=%s, policy=%s, duration=%.0f ms, budget=%.0f ms",
		spec.Shards, spec.Router, cellPolicy, spec.DurationMs, p.Opt.BudgetMs)
	rep.Note("cluster RPS = per-ISN RPS × replicas (fixed per-core pressure); drawn W is what the engines drew (realized energy over the run), believed peak W the cap coordinator's modeled boundary peak, the figure the cap acts on")
	return rep, nil
}

// runCell is the one topology run block under CapacityReport and
// CellReport: resolve spec's router, build the fixed-RPS stream, and run one
// Gemini instance per replica core. Offered load scales with the replica
// count (cluster RPS = per-ISN RPS × replicas), so each replica sees a
// per-core rate comparable to the single-ISN experiments. tc brings the
// simulator config, sinks and routing seed; runCell fills in the rest. The
// replicas run on par.DefaultWorkers() OS threads, which changes no result.
func (p *Platform) runCell(spec TimelineSpec, engineRPS float64, tc sim.TopologyConfig) (*sim.TopologyResult, error) {
	router, err := sim.RouterByName(spec.Router)
	if err != nil {
		return nil, err
	}
	tc.Router = router
	tc.Topology = sim.Topology{Shards: spec.Shards, ReplicasPerShard: spec.Replicas}
	tc.PowerCapW, tc.CapIntervalMs = spec.CapW, spec.CapIntervalMs
	isnRPS := engineRPS * p.Opt.ShardFraction * float64(spec.Replicas)
	tr := trace.GenFixedRPS(isnRPS, spec.DurationMs, 1)
	wl := p.Workload(tr.Arrivals, spec.DurationMs, 2)
	return sim.RunTopologyWorkers(tc, wl, par.DefaultWorkers(), func(int) sim.Policy {
		return p.MustPolicy(cellPolicy)
	}), nil
}

// topologyHeader names the columns CapacityReport and CellReport share;
// topologyCells fills them. The two watt columns come from different books:
// "drawn W" is the energy the engines realized over the run's duration,
// "believed peak W" the highest cluster power the cap coordinator's model read
// at a control boundary (0 with no cap). The cap acts on the second.
var topologyHeader = []string{"cap W", "queries", "drop", "viol", "p99 ms",
	"drawn W", "believed peak W", "throttles"}

func (p *Platform) topologyCells(capW float64, res *sim.TopologyResult) []string {
	capCell := "-"
	if capW > 0 {
		capCell = f1(capW)
	}
	return []string{
		capCell,
		fmt.Sprintf("%d", res.Queries),
		pct(res.DropRate()),
		pct(res.ViolationRate()),
		f2(res.TailLatencyMs(99)),
		f2(res.ClusterPowerW(p.Power)),
		f2(res.PeakModeledPowerW),
		fmt.Sprintf("%d", res.CapThrottles),
	}
}
