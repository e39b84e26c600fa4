// Package search implements the query-evaluation path of the ISN: top-K
// retrieval with MaxScore-style selective pruning over the inverted index,
// the Table II feature extraction that feeds Gemini's neural-network
// predictors, and the cycle cost model that converts an execution's work
// counters into cpu.Work for the DVFS simulator.
package search

import (
	"sort"

	"gemini/internal/corpus"
	"gemini/internal/index"
)

// DefaultK is the result-set size K used throughout the evaluation.
const DefaultK = 10

// ExecStats counts the work done by one query execution; the cost model
// converts these into CPU cycles.
type ExecStats struct {
	PostingsVisited int // postings advanced in driving (essential) lists
	Lookups         int // binary-search probes into non-essential lists
	DocsScored      int // candidate documents whose score was computed
	DocsEverInTopK  int // documents that entered the top-K heap ("fully scored")
	HeapOps         int // heap insertions
	Terms           int // number of query terms evaluated
}

// CacheLookupStats is the execution-counter charge of a result-cache hit
// (paper ref [22]): one probe, nothing else, so the cost model prices a
// cached query at roughly the engine's fixed overhead.
var CacheLookupStats = ExecStats{Lookups: 1}

// Execution is the outcome of evaluating one query.
type Execution struct {
	Results []Result
	Stats   ExecStats
}

// Engine evaluates queries against an index shard.
type Engine struct {
	ix  *index.Index
	k   int
	alg Algorithm
}

// NewEngine creates an engine returning top-k results (k<=0 means DefaultK).
func NewEngine(ix *index.Index, k int) *Engine {
	if k <= 0 {
		k = DefaultK
	}
	return &Engine{ix: ix, k: k}
}

// K returns the engine's result-set size.
func (e *Engine) K() int { return e.k }

// Index returns the underlying shard index.
func (e *Engine) Index() *index.Index { return e.ix }

// Search evaluates the query and returns the scored top-K with execution
// statistics. Queries whose terms are all unknown return an empty result.
func (e *Engine) Search(q corpus.Query) Execution {
	lists := e.ix.Lists(q)
	switch {
	case len(lists) == 0:
		return Execution{}
	case e.alg == AlgExhaustive:
		return e.searchExhaustive(lists)
	case len(lists) == 1:
		return e.searchSingle(lists[0])
	case e.alg == AlgWAND:
		return e.searchWAND(lists)
	default:
		return e.searchMaxScore(lists)
	}
}

// searchSingle scans a single posting list: no pruning is possible for a
// doc-ordered disjunction of one term, so cost is linear in list length —
// the paper's observation that service time tracks the posting list,
// modulated for multi-term queries by pruning.
func (e *Engine) searchSingle(pl *index.PostingList) Execution {
	h := newTopKHeap(e.k)
	st := ExecStats{Terms: 1}
	for _, p := range pl.Postings {
		st.PostingsVisited++
		st.DocsScored++
		if h.offer(Result{Doc: p.Doc, Score: p.Impact}) {
			st.DocsEverInTopK++
		}
	}
	st.HeapOps = h.pushes
	return Execution{Results: h.results(), Stats: st}
}

// searchMaxScore runs document-at-a-time MaxScore over >=2 lists: lists are
// ordered by ascending max impact; a prefix of "non-essential" lists whose
// cumulative upper bound cannot alone beat the current threshold is only
// probed (by binary search) for candidates produced by the remaining
// "essential" lists.
func (e *Engine) searchMaxScore(lists []*index.PostingList) Execution {
	sort.Slice(lists, func(i, j int) bool { return lists[i].MaxImpact < lists[j].MaxImpact })
	n := len(lists)

	// prefixUB[i] = sum of MaxImpact of lists[0..i-1].
	prefixUB := make([]float32, n+1)
	for i, l := range lists {
		prefixUB[i+1] = prefixUB[i] + l.MaxImpact
	}

	cursors := make([]int, n) // per-list position, only advanced for essential lists
	h := newTopKHeap(e.k)
	st := ExecStats{Terms: n}

	// firstEssential is the index of the first essential list; lists before
	// it are non-essential. It only grows as the threshold rises.
	firstEssential := 0

	for {
		// Raise the non-essential boundary as far as the threshold allows.
		theta := h.threshold()
		for firstEssential < n-1 && h.full() && prefixUB[firstEssential+1] <= theta {
			firstEssential++
		}

		// Find the minimum current document among essential lists.
		cand := int32(-1)
		for i := firstEssential; i < n; i++ {
			if cursors[i] < len(lists[i].Postings) {
				d := lists[i].Postings[cursors[i]].Doc
				if cand < 0 || d < cand {
					cand = d
				}
			}
		}
		if cand < 0 {
			break // all essential lists exhausted
		}

		// Score the candidate: essential contributions by advancing cursors,
		// plus an upper bound from non-essential lists.
		var score float32
		for i := firstEssential; i < n; i++ {
			if cursors[i] < len(lists[i].Postings) && lists[i].Postings[cursors[i]].Doc == cand {
				score += lists[i].Postings[cursors[i]].Impact
				cursors[i]++
				st.PostingsVisited++
			}
		}
		st.DocsScored++

		// Only consult non-essential lists if the doc could still make it.
		theta = h.threshold()
		if score+prefixUB[firstEssential] > theta {
			for i := firstEssential - 1; i >= 0; i-- {
				// Check whether even with list i..0 the doc can pass.
				if score+prefixUB[i+1] <= theta {
					break
				}
				if imp, probes, ok := probe(lists[i], cand); ok {
					score += imp
					st.Lookups += probes
				} else {
					st.Lookups += probes
				}
			}
			if h.offer(Result{Doc: cand, Score: score}) {
				st.DocsEverInTopK++
			}
		}
	}

	st.HeapOps = h.pushes
	return Execution{Results: h.results(), Stats: st}
}

// probe binary-searches list for doc, returning its impact, the number of
// probe steps (charged as Lookups), and whether the doc was found.
func probe(pl *index.PostingList, doc int32) (float32, int, bool) {
	lo, hi := 0, len(pl.Postings)
	steps := 0
	for lo < hi {
		steps++
		mid := (lo + hi) / 2
		d := pl.Postings[mid].Doc
		switch {
		case d == doc:
			return pl.Postings[mid].Impact, steps, true
		case d < doc:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return 0, steps, false
}
