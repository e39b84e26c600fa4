package search

import (
	"sort"

	"gemini/internal/index"
)

// Algorithm selects the query-evaluation strategy. MaxScore is the default
// (and what the cost model is calibrated for); Exhaustive disables pruning
// entirely and is the correctness oracle as well as the "no pruning"
// ablation point.
type Algorithm int

const (
	// AlgMaxScore evaluates with document-at-a-time MaxScore pruning.
	AlgMaxScore Algorithm = iota
	// AlgExhaustive scores every posting of every list.
	AlgExhaustive
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgMaxScore:
		return "maxscore"
	case AlgExhaustive:
		return "exhaustive"
	default:
		return "unknown"
	}
}

// NewEngineWith creates an engine with an explicit evaluation algorithm
// (k<=0 means DefaultK). Only AlgMaxScore builds the one-term table: the
// exhaustive oracle scans every list it is asked about.
func NewEngineWith(ix *index.Index, k int, alg Algorithm) *Engine {
	if k <= 0 {
		k = DefaultK
	}
	e := &Engine{ix: ix, k: k, alg: alg}
	if alg == AlgMaxScore {
		e.one = oneTermTable(ix, k)
	}
	return e
}

// Algorithm returns the engine's evaluation strategy.
func (e *Engine) Algorithm() Algorithm { return e.alg }

// searchExhaustive scores every document of every list — the pruning-free
// oracle.
func (e *Engine) searchExhaustive(lists []*index.PostingList) Execution {
	scores := map[int32]float32{}
	st := ExecStats{Terms: len(lists)}
	for _, pl := range lists {
		for _, p := range pl.Postings {
			scores[p.Doc] += p.Impact
			st.PostingsVisited++
		}
	}
	h := newTopKHeap(e.k)
	// Deterministic iteration: collect and sort doc ids.
	docs := make([]int32, 0, len(scores))
	for d := range scores {
		docs = append(docs, d)
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i] < docs[j] })
	for _, d := range docs {
		st.DocsScored++
		if h.offer(Result{Doc: d, Score: scores[d]}) {
			st.DocsEverInTopK++
		}
	}
	st.HeapOps = h.pushes
	return Execution{Results: h.results(), Stats: st}
}
