package harness

import (
	"fmt"

	"gemini/internal/par"
	"gemini/internal/sim"
	"gemini/internal/trace"
)

// ClusterReport runs the paper's §V multi-core plan — the least-expected-work
// broker over per-core queues, one policy instance per core — for every
// scheme of the Fig. 10/11 sweep, and tabulates cluster-level quality and
// power. The offered load scales with the core count so each core sees the
// same per-ISN rate as the single-ISN experiments, and each scheme pays the
// prediction stall as ConfigFor says.
// The per-core simulations are sharded over par.DefaultWorkers() OS threads
// (sim.RunClusterWorkers), which changes no number.
func (p *Platform) ClusterReport(cores int, engineRPS, durationMs float64) *Report {
	if cores < 1 {
		cores = 1
	}
	isnRPS := engineRPS * p.Opt.ShardFraction * float64(cores)
	tr := trace.GenFixedRPS(isnRPS, durationMs, 1)
	rep := &Report{
		Title:  "Multi-core cluster (§V broker)",
		Header: []string{"policy", "requests", "completed", "drop", "viol", "p95 ms", "socket W", "events"},
	}
	for _, name := range PolicyNames {
		wl := p.Workload(tr.Arrivals, durationMs, 2)
		cr := sim.RunClusterWorkers(p.ConfigFor(name), wl, cores, par.DefaultWorkers(), func(int) sim.Policy {
			return p.MustPolicy(name)
		})
		rep.AddRow(name,
			fmt.Sprintf("%d", cr.Total), fmt.Sprintf("%d", cr.Completed),
			pct(cr.DropRate()),
			pct(cr.ViolationRate()),
			f2(cr.TailLatencyMs(95)),
			f2(cr.SocketPowerW(p.Power)),
			fmt.Sprintf("%d", cr.Events))
	}
	rep.Note("cores=%d, engine RPS=%.0f, duration=%.0f ms", cores, engineRPS, durationMs)
	return rep
}
