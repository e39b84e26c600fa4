// Parallel experiment engine: the evaluation grids — (rps, policy) for the
// Fig. 10/11 sweep, (trace, policy) for Figs. 12–14, and the ablation /
// extension variant lists — are embarrassingly parallel, so this file fans
// their independent cells across a worker pool. Every cell writes only its
// own index of a pre-sized result slice and the cross-cell quantities
// (power saving vs the baseline at the same grid point) are computed during
// a serial, index-ordered assembly pass, so serial (workers == 1) and
// parallel runs produce byte-identical reports.
package harness

import (
	"gemini/internal/par"
	"gemini/internal/policy"
	"gemini/internal/sim"
	"gemini/internal/trace"
)

// DefaultWorkers returns the grid runner's default worker count: one worker
// per schedulable CPU.
func DefaultWorkers() int { return par.DefaultWorkers() }

// RPSSweepWorkers runs the Fig. 10/11 experiment: each policy at fixed request
// rates for durationMs of simulated time (the paper holds each RPS for 120 s
// on the Wikipedia query mix with a 40 ms budget). Each rate's arrival trace
// and workload come from seeds that depend only on the rate, so they are built
// once per rate and shared read-only by that rate's policy cells, which are
// fanned across the worker pool; the returned grid is identical for any
// worker count.
func (p *Platform) RPSSweepWorkers(rpsList []float64, durationMs float64, workers int) *SweepData {
	if rpsList == nil {
		rpsList = []float64{20, 40, 60, 80, 100}
	}
	nPol := len(PolicyNames)
	type sweepSlot struct {
		cell SweepCell
		res  *sim.Result
	}
	wls := make([]*sim.Workload, len(rpsList))
	par.Run(workers, len(wls), func(i int) {
		tr := trace.GenFixedRPS(rpsList[i]*p.Opt.ShardFraction, durationMs, p.Opt.Seed+20+int64(i))
		wls[i] = p.Workload(tr.Arrivals, durationMs, p.Opt.Seed+30+int64(i))
	})
	slots := make([]sweepSlot, len(rpsList)*nPol)
	par.Run(workers, len(slots), func(k int) {
		i, pi := k/nPol, k%nPol
		rps, name := rpsList[i], PolicyNames[pi]
		cfg := p.SimConfig()
		if name == "Baseline" {
			cfg.PredictOverheadMs = 0
		}
		res := sim.Run(cfg, wls[i], p.MustPolicy(name))
		slots[k] = sweepSlot{
			res: res,
			cell: SweepCell{
				Policy:       name,
				RPS:          rps,
				SocketPowerW: res.SocketPowerW(p.Power),
				TailMs:       res.TailLatencyMs(95),
				ViolationPct: res.ViolationRate() * 100,
				DropPct:      res.DropRate() * 100,
			},
		}
	})
	// Index-ordered assembly: savings against the baseline at the same RPS.
	data := &SweepData{RPS: rpsList, Cells: map[string][]SweepCell{}}
	for i := range rpsList {
		base := slots[i*nPol].res // PolicyNames[0] is Baseline
		for pi, name := range PolicyNames {
			slot := slots[i*nPol+pi]
			slot.cell.SavingFrac = slot.res.PowerSavingVs(base, p.Power)
			data.Cells[name] = append(data.Cells[name], slot.cell)
		}
	}
	return data
}

// TraceRunsWorkers drives the trace-driven experiments behind Figs. 12–14:
// each policy over each named 1000 s trace at the given mean RPS. Each trace's
// workload is built once and shared read-only by its policy cells, the
// (trace, policy) cells fanned across the worker pool; results are identical
// for any worker count.
func (p *Platform) TraceRunsWorkers(traces, policies []string, avgRPS, durationMs float64, workers int) *TraceData {
	// Baseline always runs (first, in the serial order) for the saving
	// reference.
	ordered := make([]string, 0, len(policies)+1)
	seen := map[string]bool{}
	for _, name := range append([]string{"Baseline"}, policies...) {
		if !seen[name] {
			seen[name] = true
			ordered = append(ordered, name)
		}
	}
	nPol := len(ordered)
	type traceSlot struct {
		cell *TraceCell
		res  *sim.Result
	}
	wls := make([]*sim.Workload, len(traces))
	par.Run(workers, len(wls), func(ti int) {
		tr := trace.GenEvalTrace(traces[ti], avgRPS*p.Opt.ShardFraction, durationMs, p.Opt.Seed+40+int64(ti))
		wls[ti] = p.Workload(tr.Arrivals, durationMs, p.Opt.Seed+50+int64(ti))
	})
	slots := make([]traceSlot, len(traces)*nPol)
	par.Run(workers, len(slots), func(k int) {
		ti, pi := k/nPol, k%nPol
		trName, name := traces[ti], ordered[pi]
		cfg := p.SimConfig()
		cfg.Series = sim.NewRunTimeseries(cfg.Ladder, durationMs, 10_000) // 10 s windows, as §V reads RAPL
		if name == "Baseline" {
			cfg.PredictOverheadMs = 0
		}
		res := sim.Run(cfg, wls[ti], p.MustPolicy(name))
		rows := cfg.Series.Rows()
		socketW := make([]float64, len(rows))
		for i, row := range rows {
			socketW[i] = p.Power.UncoreW + float64(p.Power.Cores)*row.PowerW
		}
		slots[k] = traceSlot{
			res: res,
			cell: &TraceCell{
				Trace:        trName,
				Policy:       name,
				SocketPowerW: res.SocketPowerW(p.Power),
				TailMs:       res.TailLatencyMs(95),
				ViolationPct: res.ViolationRate() * 100,
				DropPct:      res.DropRate() * 100,
				PowerSeriesW: socketW,
				Latencies:    res.Latencies,
			},
		}
	})
	data := &TraceData{Traces: traces, Policies: policies, Cells: map[string]map[string]*TraceCell{}}
	for ti, trName := range traces {
		data.Cells[trName] = map[string]*TraceCell{}
		base := slots[ti*nPol].res // ordered[0] is Baseline
		for pi, name := range ordered {
			slot := slots[ti*nPol+pi]
			slot.cell.SavingFrac = slot.res.PowerSavingVs(base, p.Power)
			data.Cells[trName][name] = slot.cell
		}
	}
	return data
}

// variantCell is one ablation/extension grid cell: a policy (plus its sim
// config and workload parameters) to run and measure.
type variantCell struct {
	name     string
	pol      sim.Policy
	cfg      sim.Config
	budgetMs float64 // 0 = platform default
	// baseIdx is the index of this cell's saving reference within the cell
	// list (-1 = no reference; SavingFrac stays 0 unless it is its own ref,
	// which yields exactly 0 like the serial code did).
	baseIdx int
	// hidden cells run (typically as a saving reference) but are not
	// emitted into the AblationData.
	hidden bool
}

// runVariantCells executes the cells across the worker pool (same seeds and
// per-cell workloads as the serial loops used) and assembles AblationCells in
// input order, computing savings against each cell's reference result.
func (p *Platform) runVariantCells(cells []variantCell, rps, durationMs float64, workers int) (*AblationData, []*sim.Result) {
	results := make([]*sim.Result, len(cells))
	par.Run(workers, len(cells), func(i int) {
		c := cells[i]
		budget := c.budgetMs
		if budget == 0 {
			budget = p.Opt.BudgetMs
		}
		tr := trace.GenFixedRPS(rps*p.Opt.ShardFraction, durationMs, p.Opt.Seed+60)
		wl := p.WorkloadBudget(tr.Arrivals, durationMs, p.Opt.Seed+61, budget)
		results[i] = sim.Run(c.cfg, wl, c.pol)
	})
	data := &AblationData{}
	for i, c := range cells {
		if c.hidden {
			continue
		}
		res := results[i]
		cell := AblationCell{
			Variant:      c.name,
			SocketPowerW: res.SocketPowerW(p.Power),
			TailMs:       res.TailLatencyMs(95),
			ViolationPct: res.ViolationRate() * 100,
			Transitions:  res.Transitions,
		}
		if c.baseIdx >= 0 {
			cell.SavingFrac = res.PowerSavingVs(results[c.baseIdx], p.Power)
		}
		data.Cells = append(data.Cells, cell)
	}
	return data, results
}

// baselineCell builds the no-management reference cell shared by most
// ablations (the baseline never pays prediction overhead).
func (p *Platform) baselineCell(name string) variantCell {
	cfg := p.SimConfig()
	cfg.PredictOverheadMs = 0
	return variantCell{name: name, pol: policy.Baseline{}, cfg: cfg, baseIdx: -1}
}
