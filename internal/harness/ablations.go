package harness

import (
	"fmt"

	"gemini/internal/policy"
	"gemini/internal/predictor"
	"gemini/internal/sim"
	"gemini/internal/trace"
)

// AblationData carries one ablation study.
type AblationData struct {
	Name  string
	Cells []Cell
}

// geminiVariant builds a Gemini policy with ablation knobs applied. The
// variants keep the platform's shared NN predictors, so they all consume the
// workload's precomputed prediction table.
func (p *Platform) geminiVariant(mod func(*policy.Gemini)) *policy.Gemini {
	g := policy.NewGemini(p.Classifier, p.ErrPred)
	if mod != nil {
		mod(g)
	}
	return p.markCached(g)
}

// ablationWorkload is the ablations' workload: a fixed-rate trace at rps
// (scaled by the shard fraction) seeded Seed+60, drawn under budgetMs with
// seed Seed+61.
func (p *Platform) ablationWorkload(rps, durationMs, budgetMs float64) func() *sim.Workload {
	return func() *sim.Workload {
		tr := trace.GenFixedRPS(rps*p.Opt.ShardFraction, durationMs, p.Opt.Seed+60)
		return p.WorkloadBudget(tr.Arrivals, durationMs, p.Opt.Seed+61, budgetMs)
	}
}

// ablation runs cells over the one ablation workload at the platform's
// budget and names the study.
func (p *Platform) ablation(name string, rps, durationMs float64, cells ...gridCell) *AblationData {
	measured, _ := p.runGrid(grid{workloads: []func() *sim.Workload{p.ablationWorkload(rps, durationMs, p.Opt.BudgetMs)}, cells: cells})
	return &AblationData{Name: name, Cells: measured}
}

// AblationBoost quantifies the second DVFS step: full Gemini vs one-step (no
// boost) vs no error slack (ZeroError) at a busy fixed load.
func (p *Platform) AblationBoost(rps, durationMs float64) (*Report, *AblationData) {
	data := p.ablation("boost", rps, durationMs,
		p.cell("Baseline", policy.Baseline{}, 0, -1),
		p.cell("Gemini (two-step)", p.geminiVariant(nil), 0, 0),
		p.cell("Gemini no-boost", p.geminiVariant(func(g *policy.Gemini) { g.DisableBoost = true }), 0, 0),
		p.cell("Gemini no-slack", p.markCached(policy.NewGemini(p.Classifier, predictor.ZeroError{})), 0, 0))
	r := ablationReport("Ablation — value of the boost step and the error slack", data)
	r.Note("no-boost saves slightly more power but loses the deadline guarantee; no-slack boosts too late")
	return r, data
}

// AblationGrouping quantifies the §III-C grouping rule: shared group
// frequency vs per-request re-planning.
func (p *Platform) AblationGrouping(rps, durationMs float64) (*Report, *AblationData) {
	data := p.ablation("grouping", rps, durationMs,
		p.cell("Baseline", policy.Baseline{}, 0, -1),
		p.cell("Gemini (grouped)", p.geminiVariant(nil), 0, 0),
		p.cell("Gemini per-request", p.geminiVariant(func(g *policy.Gemini) { g.NoGrouping = true }), 0, 0))
	r := ablationReport("Ablation — group frequency vs per-request re-planning", data)
	r.Note("grouping trades a few re-plans for fewer frequency transitions (Tdvfs stalls)")
	return r, data
}

// AblationTdvfs sweeps the transition-stall cost.
func (p *Platform) AblationTdvfs(rps, durationMs float64) (*Report, *AblationData) {
	var cells []gridCell
	for _, td := range []float64{0, 0.05, 0.2, 0.5} {
		c := p.cell(fmt.Sprintf("Tdvfs=%.2fms", td), p.geminiVariant(func(g *policy.Gemini) { g.Params.TdvfsMs = td }), 0, -1)
		c.cfg.TdvfsMs = td
		cells = append(cells, c)
	}
	data := p.ablation("tdvfs", rps, durationMs, cells...)
	return ablationReport("Ablation — Tdvfs transition-stall sensitivity", data), data
}

// AblationBudget sweeps the tail latency budget. Each budget point has its
// own workload and a baseline run over it as the saving reference, which the
// report leaves out.
func (p *Platform) AblationBudget(rps, durationMs float64) (*Report, *AblationData) {
	var g grid
	for i, budget := range []float64{25, 30, 40, 50, 60} {
		g.workloads = append(g.workloads, p.ablationWorkload(rps, durationMs, budget))
		g.cells = append(g.cells, p.cell("base", policy.Baseline{}, i, -1),
			p.cell(fmt.Sprintf("budget=%.0fms", budget), p.geminiVariant(nil), i, len(g.cells)))
	}
	cells, _ := p.runGrid(g)
	data := &AblationData{Name: "budget"}
	for i := 1; i < len(cells); i += 2 {
		data.Cells = append(data.Cells, cells[i])
	}
	r := ablationReport("Ablation — latency budget sensitivity (Gemini saving vs baseline)", data)
	r.Note("looser budgets leave more slack to harvest; tight budgets force near-max frequencies")
	return r, data
}

// AblationSleep compares Gemini with and without the C-state extension at a
// light load where idle time dominates.
func (p *Platform) AblationSleep(rps, durationMs float64) (*Report, *AblationData) {
	data := p.ablation("sleep", rps, durationMs,
		p.cell("Baseline", policy.Baseline{}, 0, -1),
		p.cell("Gemini", p.geminiVariant(nil), 0, 0),
		p.cell("Gemini+Sleep", policy.NewSleepWrapper(p.geminiVariant(nil)), 0, 0))
	r := ablationReport("Extension — sleep states on top of Gemini (light load)", data)
	r.Note("§I: the two-step technique composes with C-states; idle residency dominates at light load")
	return r, data
}

func ablationReport(title string, data *AblationData) *Report {
	r := &Report{
		Title:  title,
		Header: []string{"Variant", "Power (W)", "Saving", "p95 (ms)", "Violations", "Transitions"},
	}
	for _, c := range data.Cells {
		r.AddRow(c.Name, f1(c.SocketPowerW), pct(c.SavingFrac), f2(c.TailMs),
			fmt.Sprintf("%.2f%%", c.ViolationPct), fmt.Sprintf("%d", c.Transitions))
	}
	return r
}

// ExtensionGovernors compares Gemini against the deadline-blind Linux-style
// cpufreq governors and the remaining extension baselines at a fixed load —
// context for Table I beyond the paper's three compared schemes.
func (p *Platform) ExtensionGovernors(rps, durationMs float64) (*Report, *AblationData) {
	cells := []gridCell{p.cell("Baseline", policy.Baseline{}, 0, -1)}
	for _, name := range []string{"ondemand", "conservative", "EETL", "PACE-oracle", "Gemini"} {
		cells = append(cells, p.cell(name, p.MustPolicy(name), 0, 0))
	}
	data := p.ablation("governors", rps, durationMs, cells...)
	r := ablationReport("Extension — deadline-blind governors vs latency-aware policies", data)
	r.Note("ondemand/conservative track utilization, not deadlines: similar power, worse tails")
	return r, data
}
