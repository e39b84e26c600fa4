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
	// Workers is the grid-runner worker count for the parallelizable
	// experiment grids; <= 0 (and 1) runs serially. Any value produces
	// byte-identical reports — see parallel.go.
	Workers int

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

// workers normalizes the Workers field to a valid grid-runner count.
func (e *ExperimentSet) workers() int {
	if e.Workers <= 0 {
		return 1
	}
	return e.Workers
}

// Sweep returns the cached Fig. 10/11 measurement grid.
func (e *ExperimentSet) Sweep() *SweepData {
	if e.sweep == nil {
		e.sweep = e.P.RPSSweepWorkers(nil, 120_000*e.DurScale, e.workers())
	}
	return e.sweep
}

// Traces returns the cached Fig. 12–14 measurement grid.
func (e *ExperimentSet) Traces() *TraceData {
	if e.traces == nil {
		pols := []string{"Rubik", "Pegasus", "Gemini", "Gemini-a", "Gemini-95th"}
		e.traces = e.P.TraceRunsWorkers([]string{"wiki", "lucene", "trec"}, pols, 60, 1_000_000*e.DurScale, e.workers())
	}
	return e.traces
}

// runners maps experiment names to their implementations.
func (e *ExperimentSet) runners() map[string]func() *Report {
	abl := 200_000 * e.DurScale
	w := e.workers()
	return map[string]func() *Report{
		"table1": func() *Report { return e.P.Table1() },
		"table2": func() *Report { r, _ := e.P.Table2(); return r },
		"fig1b":  func() *Report { r, _ := e.P.Fig1b(); return r },
		"fig1c":  func() *Report { r, _ := e.P.Fig1c(); return r },
		"fig3":   func() *Report { r, _ := e.P.Fig3(); return r },
		"fig6":   func() *Report { r, _ := e.P.Fig6Workers(w); return r },
		"fig7":   func() *Report { r, _ := e.P.Fig7(); return r },
		"fig8":   func() *Report { r, _ := e.P.Fig8(); return r },
		"fig10":  func() *Report { return e.P.Fig10(e.Sweep()) },
		"fig11":  func() *Report { return e.P.Fig11(e.Sweep()) },
		"fig12":  func() *Report { return e.P.Fig12(e.Traces()) },
		"fig13":  func() *Report { return e.P.Fig13(e.Traces()) },
		"fig14":  func() *Report { return e.P.Fig14(e.Traces()) },
		"ablation-boost": func() *Report {
			r, _ := e.P.AblationBoostWorkers(80, abl, w)
			return r
		},
		"ablation-grouping": func() *Report {
			r, _ := e.P.AblationGroupingWorkers(80, abl, w)
			return r
		},
		"ablation-tdvfs": func() *Report {
			r, _ := e.P.AblationTdvfsWorkers(80, abl, w)
			return r
		},
		"ablation-budget": func() *Report {
			r, _ := e.P.AblationBudgetWorkers(80, abl, w)
			return r
		},
		"ablation-sleep": func() *Report {
			r, _ := e.P.AblationSleepWorkers(20, abl, w)
			return r
		},
		"extension-governors": func() *Report {
			r, _ := e.P.ExtensionGovernorsWorkers(80, abl, w)
			return r
		},
		"extension-cache": func() *Report {
			r, _ := e.P.ExtensionCacheWorkers(80, abl, 256, w)
			return r
		},
		"extension-aggregate": func() *Report {
			r, _ := e.P.ExtensionAggregateWorkers(4, 60, abl, w)
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
