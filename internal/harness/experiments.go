package harness

import (
	"fmt"
	"sort"
)

// ExperimentSet binds a platform to the named experiment runners and caches
// the expensive shared measurement grids (the RPS sweep behind Figs. 10–11,
// the trace runs behind Figs. 12–14).
type ExperimentSet struct {
	P *Platform
	// DurScale scales the experiments' simulated durations (1 = the paper's
	// 120 s sweep points and 1000 s traces); tests use a small fraction.
	DurScale float64

	sweep  *SweepData
	traces *TraceData
}

// NewExperimentSet creates a set over the platform. durScale <= 0 means 1.
func NewExperimentSet(p *Platform, durScale float64) *ExperimentSet {
	if durScale <= 0 {
		durScale = 1
	}
	return &ExperimentSet{P: p, DurScale: durScale}
}

// Sweep returns the cached Fig. 10/11 measurement grid.
func (e *ExperimentSet) Sweep() *SweepData {
	if e.sweep == nil {
		e.sweep = e.P.RPSSweep(nil, 120_000*e.DurScale)
	}
	return e.sweep
}

// Traces returns the cached Fig. 12–14 measurement grid.
func (e *ExperimentSet) Traces() *TraceData {
	if e.traces == nil {
		pols := []string{"Rubik", "Pegasus", "Gemini", "Gemini-a", "Gemini-95th"}
		e.traces = e.P.TraceRuns([]string{"wiki", "lucene", "trec"}, pols, 60, 1_000_000*e.DurScale)
	}
	return e.traces
}

// runners maps experiment names to their implementations.
func (e *ExperimentSet) runners() map[string]func() *Report {
	abl := 200_000 * e.DurScale
	return map[string]func() *Report{
		"table1": func() *Report { return e.P.Table1() },
		"table2": func() *Report { r, _ := e.P.Table2(); return r },
		"fig1b":  func() *Report { r, _ := e.P.Fig1b(); return r },
		"fig1c":  func() *Report { r, _ := e.P.Fig1c(); return r },
		"fig3":   func() *Report { r, _ := e.P.Fig3(); return r },
		"fig6":   func() *Report { r, _ := e.P.Fig6(); return r },
		"fig7":   func() *Report { r, _ := e.P.Fig7(); return r },
		"fig8":   func() *Report { r, _ := e.P.Fig8(); return r },
		"fig10":  func() *Report { return e.P.Fig10(e.Sweep()) },
		"fig11":  func() *Report { return e.P.Fig11(e.Sweep()) },
		"fig12":  func() *Report { return e.P.Fig12(e.Traces()) },
		"fig13":  func() *Report { return e.P.Fig13(e.Traces()) },
		"fig14":  func() *Report { return e.P.Fig14(e.Traces()) },
		"ablation-boost": func() *Report {
			r, _ := e.P.AblationBoost(80, abl)
			return r
		},
		"ablation-grouping": func() *Report {
			r, _ := e.P.AblationGrouping(80, abl)
			return r
		},
		"ablation-tdvfs": func() *Report {
			r, _ := e.P.AblationTdvfs(80, abl)
			return r
		},
		"ablation-budget": func() *Report {
			r, _ := e.P.AblationBudget(80, abl)
			return r
		},
		"ablation-sleep": func() *Report {
			r, _ := e.P.AblationSleep(20, abl)
			return r
		},
		"extension-governors": func() *Report {
			r, _ := e.P.ExtensionGovernors(80, abl)
			return r
		},
		"extension-cache": func() *Report {
			r, _ := e.P.ExtensionCache(80, abl, 256)
			return r
		},
		"extension-aggregate": func() *Report {
			r, _ := e.P.ExtensionAggregate(4, 60, abl)
			return r
		},
		"fig2": func() *Report { return e.P.Fig2(4) },
	}
}

// Names lists the available experiments, sorted.
func (e *ExperimentSet) Names() []string {
	rs := e.runners()
	names := make([]string, 0, len(rs))
	for n := range rs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run executes one named experiment and returns its report.
func (e *ExperimentSet) Run(name string) (*Report, error) {
	r, ok := e.runners()[name]
	if !ok {
		return nil, fmt.Errorf("harness: unknown experiment %q", name)
	}
	return r(), nil
}
