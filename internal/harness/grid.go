// The experiment grids. The evaluation is grids of independent simulations —
// (rps, policy) for the Fig. 10/11 sweep, (trace, policy) for Figs. 12–14,
// and the ablation and extension variant lists — and every grid goes through
// one runner, runGrid: a grid lists its workloads, each built once and shared
// read-only by its cells, and its cells, which runGrid fans across
// par.DefaultWorkers() workers, so GOMAXPROCS sets the worker count. Every job
// writes only its own slot and the cross-cell quantities (power saving against
// a reference cell) are taken in cell order afterwards, so no report depends
// on GOMAXPROCS.

package harness

import (
	"slices"

	"gemini/internal/par"
	"gemini/internal/sim"
	"gemini/internal/trace"
)

// Cell is one measured grid cell.
type Cell struct {
	Name         string // the cell's policy or variant
	SocketPowerW float64
	SavingFrac   float64 // vs the cell's reference (the baseline at the same grid point); 0 without one
	TailMs       float64 // 95th-percentile latency
	ViolationPct float64
	DropPct      float64
	Transitions  int
	PowerSeriesW []float64 // socket watts per window of the cell's series (Figs. 12–14); nil without one
	Latencies    []float64
}

// grid is one experiment's simulations: the workloads and the cells that
// run over them.
type grid struct {
	workloads []func() *sim.Workload
	cells     []gridCell
}

// gridCell is one simulation: pol over workload wl under cfg.
type gridCell struct {
	name string
	pol  sim.Policy
	cfg  sim.Config
	wl   int // index into grid.workloads
	base int // index of the cell whose result is this one's saving reference; -1 = none
}

// cell is a grid cell running pol on workload wl with ConfigFor's simulator
// config. Callers may adjust cfg.
func (p *Platform) cell(name string, pol sim.Policy, wl, base int) gridCell {
	return gridCell{name: name, pol: pol, cfg: p.ConfigFor(pol.Name()), wl: wl, base: base}
}

// ConfigFor is the platform's simulator config for a run of the named
// policy, the prediction stall charged as paysPredictOverhead says. Every
// run of one named policy (the grids, ClusterReport, RunWaterfall,
// LogDecisions and the gemini façade's Simulate) starts from it.
func (p *Platform) ConfigFor(policy string) sim.Config {
	cfg := p.SimConfig()
	if !paysPredictOverhead(policy) {
		cfg.PredictOverheadMs = 0
	}
	return cfg
}

// paysPredictOverhead is the one rule for which grid cells pay the per-request
// prediction stall (SimConfig's PredictOverheadMs, the NN classifier's 79 µs
// inference): Baseline and the governors extension's comparison policies
// (ondemand, conservative, EETL, PACE-oracle) do not; Rubik, Pegasus and
// every Gemini variant do (DESIGN.md §6).
func paysPredictOverhead(policy string) bool {
	return !slices.Contains([]string{"Baseline", "ondemand", "conservative", "EETL", "PACE-oracle"}, policy)
}

// runGrid builds g's workloads and then runs its cells, each step fanned
// across par.DefaultWorkers() workers, and measures every cell, in cell
// order, against its reference. It returns the measurements and the results.
func (p *Platform) runGrid(g grid) ([]Cell, []*sim.Result) {
	wls := make([]*sim.Workload, len(g.workloads))
	par.Run(par.DefaultWorkers(), len(wls), func(i int) { wls[i] = g.workloads[i]() })
	results := make([]*sim.Result, len(g.cells))
	par.Run(par.DefaultWorkers(), len(results), func(i int) {
		c := &g.cells[i]
		results[i] = sim.Run(c.cfg, wls[c.wl], c.pol)
	})
	cells := make([]Cell, len(g.cells))
	for i, c := range g.cells {
		res := results[i]
		cells[i] = Cell{
			Name:         c.name,
			SocketPowerW: res.SocketPowerW(p.Power),
			TailMs:       res.TailLatencyMs(95),
			ViolationPct: res.ViolationRate() * 100,
			DropPct:      res.DropRate() * 100,
			Transitions:  res.Transitions,
			Latencies:    res.Latencies,
		}
		if c.base >= 0 {
			cells[i].SavingFrac = res.PowerSavingVs(results[c.base], p.Power)
		}
		if c.cfg.Series != nil {
			for _, row := range c.cfg.Series.Rows() {
				cells[i].PowerSeriesW = append(cells[i].PowerSeriesW, p.Power.UncoreW+float64(p.Power.Cores)*row.PowerW)
			}
		}
	}
	return cells, results
}

// RPSSweep runs the Fig. 10/11 experiment: each policy at fixed request rates
// for durationMs of simulated time (the paper holds each RPS for 120 s on the
// Wikipedia query mix with a 40 ms budget). Each rate's arrival trace and
// workload come from seeds that depend only on the rate, and each saving is
// against the baseline at the same rate.
func (p *Platform) RPSSweep(rpsList []float64, durationMs float64) *SweepData {
	if rpsList == nil {
		rpsList = []float64{20, 40, 60, 80, 100}
	}
	var g grid
	for i, rps := range rpsList {
		seed := p.Opt.Seed + int64(i)
		g.workloads = append(g.workloads, func() *sim.Workload {
			tr := trace.GenFixedRPS(rps*p.Opt.ShardFraction, durationMs, seed+20)
			return p.Workload(tr.Arrivals, durationMs, seed+30)
		})
		base := len(g.cells) // PolicyNames[0] is Baseline
		for _, name := range PolicyNames {
			g.cells = append(g.cells, p.cell(name, p.MustPolicy(name), i, base))
		}
	}
	cells, _ := p.runGrid(g)
	data := &SweepData{RPS: rpsList, Cells: map[string][]Cell{}}
	for _, c := range cells {
		data.Cells[c.Name] = append(data.Cells[c.Name], c)
	}
	return data
}

// traceWorkload is the workload of the i-th trace of the Fig. 12–14 grid: the
// named evaluation trace at avgRPS (scaled by the shard fraction), seeded
// Seed+40+i, drawn with seed Seed+50+i. RunWaterfall and LogDecisions run
// the first one's.
func (p *Platform) traceWorkload(name string, i int, avgRPS, durationMs float64) *sim.Workload {
	tr := trace.GenEvalTrace(name, avgRPS*p.Opt.ShardFraction, durationMs, p.Opt.Seed+40+int64(i))
	return p.Workload(tr.Arrivals, durationMs, p.Opt.Seed+50+int64(i))
}

// TraceRuns drives the trace-driven experiments behind Figs. 12–14: each
// policy over each named 1000 s trace at the given mean RPS, with socket power
// sampled in 10 s windows. Baseline always runs, as the saving reference.
func (p *Platform) TraceRuns(traces, policies []string, avgRPS, durationMs float64) *TraceData {
	ordered := []string{"Baseline"}
	for _, name := range policies {
		if !slices.Contains(ordered, name) {
			ordered = append(ordered, name)
		}
	}
	var g grid
	for ti, name := range traces {
		g.workloads = append(g.workloads, func() *sim.Workload { return p.traceWorkload(name, ti, avgRPS, durationMs) })
		base := len(g.cells) // ordered[0] is Baseline
		for _, pol := range ordered {
			c := p.cell(pol, p.MustPolicy(pol), ti, base)
			c.cfg.Series = sim.NewRunTimeseries(c.cfg.Ladder, durationMs, 10_000) // 10 s windows, as §V reads RAPL
			g.cells = append(g.cells, c)
		}
	}
	cells, _ := p.runGrid(g)
	data := &TraceData{Traces: traces, Policies: policies, Cells: map[string]map[string]*Cell{}}
	for ti, name := range traces {
		data.Cells[name] = map[string]*Cell{}
		for k := range ordered {
			c := &cells[ti*len(ordered)+k]
			data.Cells[name][c.Name] = c
		}
	}
	return data
}
