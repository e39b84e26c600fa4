package harness

import (
	"fmt"

	"gemini/internal/policy"
	"gemini/internal/predictor"
)

// AblationCell is one ablation measurement.
type AblationCell struct {
	Variant      string
	SocketPowerW float64
	SavingFrac   float64
	TailMs       float64
	ViolationPct float64
	Transitions  int
}

// AblationData carries one ablation study.
type AblationData struct {
	Name  string
	Cells []AblationCell
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

// AblationBoostWorkers quantifies the second DVFS step: full Gemini vs
// one-step (no boost) vs no error slack (ZeroError) at a busy fixed load, the
// variant cells fanned across the worker pool.
func (p *Platform) AblationBoostWorkers(rps, durationMs float64, workers int) (*Report, *AblationData) {
	cfg := p.SimConfig()
	cells := []variantCell{
		p.baselineCell("Baseline"),
		{name: "Gemini (two-step)", pol: p.geminiVariant(nil), cfg: cfg, baseIdx: 0},
		{name: "Gemini no-boost", pol: p.geminiVariant(func(g *policy.Gemini) { g.DisableBoost = true }), cfg: cfg, baseIdx: 0},
		{name: "Gemini no-slack", pol: p.markCached(policy.NewGemini(p.Classifier, predictor.ZeroError{})), cfg: cfg, baseIdx: 0},
	}
	data, _ := p.runVariantCells(cells, rps, durationMs, workers)
	data.Name = "boost"
	r := ablationReport("Ablation — value of the boost step and the error slack", data)
	r.Note("no-boost saves slightly more power but loses the deadline guarantee; no-slack boosts too late")
	return r, data
}

// AblationGroupingWorkers quantifies the §III-C grouping rule: shared group
// frequency vs per-request re-planning, the variant cells fanned across the
// worker pool.
func (p *Platform) AblationGroupingWorkers(rps, durationMs float64, workers int) (*Report, *AblationData) {
	cfg := p.SimConfig()
	cells := []variantCell{
		p.baselineCell("Baseline"),
		{name: "Gemini (grouped)", pol: p.geminiVariant(nil), cfg: cfg, baseIdx: 0},
		{name: "Gemini per-request", pol: p.geminiVariant(func(g *policy.Gemini) { g.NoGrouping = true }), cfg: cfg, baseIdx: 0},
	}
	data, _ := p.runVariantCells(cells, rps, durationMs, workers)
	data.Name = "grouping"
	r := ablationReport("Ablation — group frequency vs per-request re-planning", data)
	r.Note("grouping trades a few re-plans for fewer frequency transitions (Tdvfs stalls)")
	return r, data
}

// AblationTdvfsWorkers sweeps the transition-stall cost, the sweep cells
// fanned across the worker pool.
func (p *Platform) AblationTdvfsWorkers(rps, durationMs float64, workers int) (*Report, *AblationData) {
	var cells []variantCell
	for _, td := range []float64{0, 0.05, 0.2, 0.5} {
		cfg := p.SimConfig()
		cfg.TdvfsMs = td
		g := p.geminiVariant(func(g *policy.Gemini) { g.Params.TdvfsMs = td })
		cells = append(cells, variantCell{
			name: fmt.Sprintf("Tdvfs=%.2fms", td), pol: g, cfg: cfg, baseIdx: -1,
		})
	}
	data, _ := p.runVariantCells(cells, rps, durationMs, workers)
	data.Name = "tdvfs"
	r := ablationReport("Ablation — Tdvfs transition-stall sensitivity", data)
	return r, data
}

// AblationBudgetWorkers sweeps the tail latency budget, the (budget, policy)
// cells fanned across the worker pool. Each budget point carries its own
// hidden baseline run as the saving reference.
func (p *Platform) AblationBudgetWorkers(rps, durationMs float64, workers int) (*Report, *AblationData) {
	cfg := p.SimConfig()
	var cells []variantCell
	for _, budget := range []float64{25, 30, 40, 50, 60} {
		base := p.baselineCell("base")
		base.budgetMs = budget
		base.hidden = true
		cells = append(cells, base, variantCell{
			name: fmt.Sprintf("budget=%.0fms", budget), pol: p.geminiVariant(nil),
			cfg: cfg, budgetMs: budget, baseIdx: len(cells),
		})
	}
	data, _ := p.runVariantCells(cells, rps, durationMs, workers)
	data.Name = "budget"
	r := ablationReport("Ablation — latency budget sensitivity (Gemini saving vs baseline)", data)
	r.Note("looser budgets leave more slack to harvest; tight budgets force near-max frequencies")
	return r, data
}

// AblationSleepWorkers compares Gemini with and without the C-state extension
// at a light load where idle time dominates, the variant cells fanned across
// the worker pool.
func (p *Platform) AblationSleepWorkers(rps, durationMs float64, workers int) (*Report, *AblationData) {
	cfg := p.SimConfig()
	cells := []variantCell{
		p.baselineCell("Baseline"),
		{name: "Gemini", pol: p.geminiVariant(nil), cfg: cfg, baseIdx: 0},
		{name: "Gemini+Sleep", pol: policy.NewSleepWrapper(p.geminiVariant(nil)), cfg: cfg, baseIdx: 0},
	}
	data, _ := p.runVariantCells(cells, rps, durationMs, workers)
	data.Name = "sleep"
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
		r.AddRow(c.Variant, f1(c.SocketPowerW), pct(c.SavingFrac), f2(c.TailMs),
			fmt.Sprintf("%.2f%%", c.ViolationPct), fmt.Sprintf("%d", c.Transitions))
	}
	return r
}

// ExtensionGovernorsWorkers compares Gemini against the deadline-blind
// Linux-style cpufreq governors and the remaining extension baselines at a
// fixed load — context for Table I beyond the paper's three compared schemes.
// The policy cells are fanned across the worker pool.
func (p *Platform) ExtensionGovernorsWorkers(rps, durationMs float64, workers int) (*Report, *AblationData) {
	cfg := p.SimConfig()
	cells := []variantCell{p.baselineCell("Baseline")}
	for _, name := range []string{"ondemand", "conservative", "EETL", "PACE-oracle", "Gemini"} {
		c := cfg
		if name != "Gemini" {
			c.PredictOverheadMs = 0 // only Gemini pays NN inference
		}
		cells = append(cells, variantCell{name: name, pol: p.MustPolicy(name), cfg: c, baseIdx: 0})
	}
	data, _ := p.runVariantCells(cells, rps, durationMs, workers)
	data.Name = "governors"
	r := ablationReport("Extension — deadline-blind governors vs latency-aware policies", data)
	r.Note("ondemand/conservative track utilization, not deadlines: similar power, worse tails")
	return r, data
}
