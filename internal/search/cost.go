package search

import (
	"math"

	"gemini/internal/corpus"
	"gemini/internal/cpu"
)

// CostModel converts execution counters into CPU work. The per-operation
// constants are in cycles; Scale is a dimensionless calibration knob set by
// Calibrate so that the mean query service time at the default frequency
// matches the target platform (the paper reports ≈10 ms on a 34 M-document
// shard; our default target is 5 ms on the scaled-down shard so that the
// 20–100 RPS sweep of Fig. 10 spans the same utilization band as the paper's
// testbed).
type CostModel struct {
	CyclesPerPosting float64 // advance + accumulate in a driving list
	CyclesPerLookup  float64 // one binary-search probe step
	CyclesPerScore   float64 // candidate document scoring overhead
	CyclesPerHeapOp  float64 // top-K heap insertion
	CyclesFixed      float64 // fixed per-query overhead (parse, setup, response)
	Scale            float64
}

// DefaultCostModel returns the uncalibrated per-op constants (Scale 1).
func DefaultCostModel() *CostModel {
	return &CostModel{
		CyclesPerPosting: 450,
		CyclesPerLookup:  120,
		CyclesPerScore:   900,
		CyclesPerHeapOp:  250,
		CyclesFixed:      250_000,
		Scale:            1,
	}
}

// WorkFor converts execution counters to cpu.Work (units of 10^6 cycles).
func (m *CostModel) WorkFor(st ExecStats) cpu.Work {
	cycles := m.CyclesPerPosting*float64(st.PostingsVisited) +
		m.CyclesPerLookup*float64(st.Lookups) +
		m.CyclesPerScore*float64(st.DocsScored) +
		m.CyclesPerHeapOp*float64(st.HeapOps) +
		m.CyclesFixed
	return cpu.Work(cycles * m.Scale / 1e6)
}

// Calibrate adjusts Scale so that the mean service time of the sample
// queries at the default frequency equals targetMeanMs. It returns the mean
// before calibration (at Scale as configured) for diagnostics. An empty
// sample or a target that is not a positive finite number leaves Scale alone
// and returns 0.
func (m *CostModel) Calibrate(e *Engine, sample []corpus.Query, targetMeanMs float64) float64 {
	if len(sample) == 0 || !(targetMeanMs > 0) || math.IsInf(targetMeanMs, 1) {
		return 0
	}
	total := 0.0
	for _, q := range sample {
		ex := e.Search(q)
		total += cpu.TimeFor(m.WorkFor(ex.Stats), cpu.FDefault)
	}
	mean := total / float64(len(sample))
	if mean > 0 {
		m.Scale *= targetMeanMs / mean
	}
	return mean
}
