package search

import "gemini/internal/cpu"

// CostModel converts execution counters into CPU work. The per-operation
// constants are in cycles; Scale is one dimensionless factor on all of them.
// The platform (harness.NewPlatform) sets Scale by one rule: the heaviest
// query kept, below the raw draw's 98th percentile, runs at 82 % of the
// budget at f_max. The mean is whatever that rule leaves (9.09 ms on the
// full platform, 15.06 ms on the small one), not a target.
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
