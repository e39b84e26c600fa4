package harness

import (
	"fmt"

	"gemini/internal/stats"
)

// SweepData carries the full Fig. 10/11 grid.
type SweepData struct {
	RPS   []float64
	Cells map[string][]Cell // policy -> per-RPS cells
}

// Cell returns the measurement for (policy, rps index).
func (d *SweepData) Cell(policy string, i int) Cell { return d.Cells[policy][i] }

// Fig10 renders the power and power-saving panels of Fig. 10.
func (p *Platform) Fig10(data *SweepData) *Report {
	r := &Report{
		Title:  "Fig. 10 — CPU power vs RPS (socket W; saving vs baseline)",
		Header: []string{"RPS"},
	}
	for _, name := range PolicyNames {
		r.Header = append(r.Header, name+" (W)", name+" save")
	}
	for i, rps := range data.RPS {
		row := []string{f1(rps)}
		for _, name := range PolicyNames {
			c := data.Cell(name, i)
			row = append(row, f1(c.SocketPowerW), pct(c.SavingFrac))
		}
		r.AddRow(row...)
	}
	last := len(data.RPS) - 1
	r.Note("at %.0f RPS — paper: Pegasus 9.2%%, Rubik 16.8%%, Gemini-a 32.7%%, Gemini 37.9%%", data.RPS[last])
	return r
}

// Fig11 renders the tail-latency panel of Fig. 11 from the same sweep.
func (p *Platform) Fig11(data *SweepData) *Report {
	r := &Report{
		Title:  "Fig. 11 — 95th-percentile tail latency vs RPS (budget 40 ms)",
		Header: []string{"RPS"},
	}
	for _, name := range PolicyNames {
		r.Header = append(r.Header, name+" (ms)")
	}
	for i, rps := range data.RPS {
		row := []string{f1(rps)}
		for _, name := range PolicyNames {
			row = append(row, f2(data.Cell(name, i).TailMs))
		}
		r.AddRow(row...)
	}
	r.Note("paper shape: baseline far below budget; managed policies ≈40 ms; Pegasus overshoots at high RPS")
	return r
}

// TraceData maps trace -> policy -> cell.
type TraceData struct {
	Traces   []string
	Policies []string
	Cells    map[string]map[string]*Cell
}

// Cell returns the (trace, policy) cell.
func (d *TraceData) Cell(tr, pol string) *Cell { return d.Cells[tr][pol] }

// Fig12 renders the trace-driven power timelines and average savings.
func (p *Platform) Fig12(data *TraceData) *Report {
	r := &Report{Title: "Fig. 12 — trace-driven power (socket W, 10 s buckets) and average saving"}
	for _, trName := range data.Traces {
		base := data.Cell(trName, "Baseline")
		r.Note("[%s] baseline power range %.1f–%.1f W (paper: 29.1–38.2 W)",
			trName, seriesMin(base.PowerSeriesW), seriesMax(base.PowerSeriesW))
	}
	r.Header = []string{"Trace"}
	pols := []string{"Rubik", "Pegasus", "Gemini"}
	for _, name := range pols {
		r.Header = append(r.Header, name+" save")
	}
	for _, trName := range data.Traces {
		row := []string{trName}
		for _, name := range pols {
			row = append(row, pct(data.Cell(trName, name).SavingFrac))
		}
		r.AddRow(row...)
	}
	r.Note("paper: Rubik 23.7–27.8%%, Pegasus 20.1–24.7%%, Gemini up to 42.2%% (Lucene)")
	return r
}

// Fig13 renders the latency distribution and violation-rate panels.
func (p *Platform) Fig13(data *TraceData) *Report {
	r := &Report{Title: "Fig. 13 — latency distribution, tail and violation rate (wiki trace)"}
	cells := data.Cells["wiki"]
	r.Header = []string{"Policy", "p50 (ms)", "p95 (ms)", "p99 (ms)", "Violations", "Drops"}
	for _, name := range []string{"Baseline", "Rubik", "Pegasus", "Gemini"} {
		c := cells[name]
		p50, _ := stats.Percentile(c.Latencies, 50)
		p99, _ := stats.Percentile(c.Latencies, 99)
		r.AddRow(name, f2(p50), f2(c.TailMs), f2(p99),
			fmt.Sprintf("%.1f%%", c.ViolationPct), fmt.Sprintf("%.1f%%", c.DropPct))
	}
	r.Note("paper tails: Baseline 13.8, Rubik 37.9, Pegasus 44.2, Gemini 39.3 ms")
	r.Note("paper violation rates: Rubik 4.7%%, Pegasus 5.8%%, Gemini 2.4%%")
	// CDF knee: fraction of requests above half the budget.
	for _, name := range []string{"Baseline", "Gemini"} {
		c := cells[name]
		cdf, err := stats.NewCDF(c.Latencies)
		if err == nil {
			r.Note("%s: P(latency <= %.0f ms) = %.2f", name, p.Opt.BudgetMs/2, cdf.At(p.Opt.BudgetMs/2))
		}
	}
	return r
}

// Fig14 renders the breakdown of Gemini's power saving across its variants.
func (p *Platform) Fig14(data *TraceData) *Report {
	r := &Report{
		Title:  "Fig. 14 — breakdown: Gemini vs Gemini-a vs Gemini-95th (saving vs baseline)",
		Header: []string{"Trace", "Gemini", "Gemini-a", "Gemini-95th", "a/full", "95th/full"},
	}
	for _, trName := range data.Traces {
		full := data.Cell(trName, "Gemini").SavingFrac
		alpha := data.Cell(trName, "Gemini-a").SavingFrac
		p95 := data.Cell(trName, "Gemini-95th").SavingFrac
		r.AddRow(trName, pct(full), pct(alpha), pct(p95),
			f2(safeDiv(alpha, full)), f2(safeDiv(p95, full)))
	}
	r.Note("paper (TREC): Gemini 36.1%%; Gemini-95th ≈58%% of Gemini's saving, Gemini-a ≈86%%")
	return r
}

func seriesMin(s []float64) float64 {
	m, _ := stats.Min(s)
	return m
}

func seriesMax(s []float64) float64 {
	m, _ := stats.Max(s)
	return m
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
