package harness

import (
	"fmt"
	"strings"

	"gemini/internal/sim"
	"gemini/internal/telemetry"
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
	Policy     string    // per-replica DVFS policy; "" = "Gemini"
	DurationMs float64
	Seed       int64
}

// CapacityReport runs the replicas × RPS × cap grid over the shards ×
// replicas topology and tabulates query-level quality against modeled
// cluster power. Offered load scales with the replica count (cluster RPS =
// per-ISN RPS × replicas) so each replica sees a per-core rate comparable to
// the single-ISN experiments and adding replicas reads as adding capacity at
// fixed per-core pressure.
//
// workers shards each cell's per-replica simulations over OS threads; the
// topology runner is byte-identical for any worker count, so the report is
// too (TestCapacityReportWorkersIdentical).
func (p *Platform) CapacityReport(spec CapacitySpec, workers int) *Report {
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
	if spec.Policy == "" {
		spec.Policy = "Gemini"
	}
	if spec.DurationMs <= 0 {
		spec.DurationMs = 3000
	}
	router, err := sim.RouterByName(spec.Router)
	if err != nil {
		panic(err) // spec comes from flags validated by cmd, or from tests
	}

	rep := &Report{
		Title:  "Capacity planning (shards × replicas, power-aware routing)",
		Header: append([]string{"replicas", "rps"}, topologyHeader...),
	}
	for _, replicas := range spec.Replicas {
		for _, rps := range spec.EngineRPS {
			// Per-ISN rate held constant per replica: the cluster absorbs
			// replicas× the single-ISN stream.
			isnRPS := rps * p.Opt.ShardFraction * float64(replicas)
			tr := trace.GenFixedRPS(isnRPS, spec.DurationMs, 1)
			for _, capW := range spec.CapsW {
				wl := p.Workload(tr.Arrivals, spec.DurationMs, 2)
				tc := sim.TopologyConfig{
					Sim:       p.SimConfig(),
					Topology:  sim.Topology{Shards: spec.Shards, ReplicasPerShard: replicas},
					Router:    router,
					Seed:      spec.Seed,
					PowerCapW: capW,
				}
				res := sim.RunTopologyWorkers(tc, wl, workers, func(int) sim.Policy {
					return p.MustPolicy(spec.Policy)
				})
				rep.AddRow(append([]string{fmt.Sprintf("%d", replicas), f1(rps)},
					p.topologyCells(capW, res)...)...)
			}
		}
	}
	rep.Note("shards=%d, router=%s, policy=%s, duration=%.0f ms, budget=%.0f ms",
		spec.Shards, spec.Router, spec.Policy, spec.DurationMs, p.Opt.BudgetMs)
	rep.Note("cluster RPS = per-ISN RPS × replicas (fixed per-core pressure); drawn W is what the engines drew (realized energy over the run), believed peak W the cap coordinator's modeled boundary peak, the figure the cap acts on")
	return rep
}

// topologyHeader names the columns CapacityReport and TopologyReport share;
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

// TopologyRunSpec parameterizes one shards × replicas cell for the geminisim
// -shards mode.
type TopologyRunSpec struct {
	Shards, Replicas      int
	Router, Policy        string // "" = power-aware / Gemini
	CapW, CapIntervalMs   float64
	EngineRPS, DurationMs float64
	Seed                  int64
}

// TopologyReport runs one topology cell with cluster telemetry attached and
// returns a summary report plus the Prometheus exposition of the
// gemini_cluster_* families (route counters, cap throttles, modeled power,
// query latency histogram) — what the CI smoke greps.
func (p *Platform) TopologyReport(spec TopologyRunSpec, workers int) (*Report, string, error) {
	if spec.Shards < 1 {
		spec.Shards = 1
	}
	if spec.Replicas < 1 {
		spec.Replicas = 1
	}
	if spec.Router == "" {
		spec.Router = "power-aware"
	}
	if spec.Policy == "" {
		spec.Policy = "Gemini"
	}
	if spec.EngineRPS <= 0 {
		spec.EngineRPS = 60
	}
	if spec.DurationMs <= 0 {
		spec.DurationMs = 3000
	}
	router, err := sim.RouterByName(spec.Router)
	if err != nil {
		return nil, "", err
	}

	isnRPS := spec.EngineRPS * p.Opt.ShardFraction * float64(spec.Replicas)
	tr := trace.GenFixedRPS(isnRPS, spec.DurationMs, 1)
	wl := p.Workload(tr.Arrivals, spec.DurationMs, 2)

	reg := telemetry.NewRegistry()
	tc := sim.TopologyConfig{
		Sim:           p.SimConfig(),
		Topology:      sim.Topology{Shards: spec.Shards, ReplicasPerShard: spec.Replicas},
		Router:        router,
		Seed:          spec.Seed,
		PowerCapW:     spec.CapW,
		CapIntervalMs: spec.CapIntervalMs,
		Metrics:       telemetry.NewClusterMetrics(reg),
	}
	res := sim.RunTopologyWorkers(tc, wl, workers, func(int) sim.Policy {
		return p.MustPolicy(spec.Policy)
	})

	rep := &Report{
		Title:  "Cluster topology run",
		Header: append(append([]string{"shards", "replicas", "router"}, topologyHeader...), "events"),
	}
	row := []string{fmt.Sprintf("%d", spec.Shards), fmt.Sprintf("%d", spec.Replicas), spec.Router}
	row = append(row, p.topologyCells(spec.CapW, res)...)
	rep.AddRow(append(row, fmt.Sprintf("%d", res.Events))...)
	rep.Note("policy=%s, engine RPS=%.0f, duration=%.0f ms", spec.Policy, spec.EngineRPS, spec.DurationMs)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		return nil, "", err
	}
	return rep, sb.String(), nil
}
