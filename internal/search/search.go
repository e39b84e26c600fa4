// Package search implements the query-evaluation path of the ISN: top-K
// retrieval with MaxScore-style selective pruning over the inverted index,
// the Table II feature extraction that feeds Gemini's neural-network
// predictors, and the cycle cost model that converts an execution's work
// counters into cpu.Work for the DVFS simulator.
package search

import (
	"math"
	"slices"

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

// stackTerms and stackK size the kernels' fixed scratch: a query of up to
// stackTerms terms at a K of up to stackK (DefaultK is 10, generated queries
// have one to three terms) is evaluated out of stack arrays, and the top-K it
// returns is its only allocation. Beyond either bound the same loops run
// over slices from make.
const (
	stackTerms = 8
	stackK     = 16
)

// Search evaluates the query and returns the scored top-K with execution
// statistics. Queries whose terms are all unknown return an empty result.
func (e *Engine) Search(q corpus.Query) Execution {
	var buf [stackTerms]*index.PostingList
	lists := e.ix.AppendLists(buf[:0], q)
	switch {
	case len(lists) == 0:
		return Execution{}
	case e.alg == AlgExhaustive:
		return e.searchExhaustive(lists)
	case len(lists) == 1:
		return e.searchSingle(lists[0])
	default:
		return e.searchMaxScore(lists)
	}
}

// searchSingle scans a single posting list: no pruning is possible for a
// doc-ordered disjunction of one term, so cost is linear in list length —
// the paper's observation that service time tracks the posting list,
// modulated for multi-term queries by pruning. The first K postings fill the
// heap; after that a posting costs one compare against θ unless it enters,
// and a block whose BlockMax is not above θ is passed over whole: each of its
// postings would fail that compare. Every posting is visited and scored, so
// those two counters are the list length and only heap entries are counted.
//
//gemini:hotpath
func (e *Engine) searchSingle(pl *index.PostingList) Execution {
	var store [stackK]Result
	h := heapOver(store[:], e.k)
	ps := pl.Postings
	fill := min(e.k, len(ps))
	for _, p := range ps[:fill] {
		h.push(Result{Doc: p.Doc, Score: p.Impact})
	}
	if fill == e.k {
		theta := h.items[0].Score
		for b := fill / index.BlockSize; b < len(pl.BlockMax); b++ {
			if pl.BlockMax[b] <= theta {
				continue
			}
			lo, hi := max(b*index.BlockSize, fill), min((b+1)*index.BlockSize, len(ps))
			for _, p := range ps[lo:hi] {
				if p.Impact <= theta {
					continue
				}
				h.replaceMin(Result{Doc: p.Doc, Score: p.Impact})
				theta = h.items[0].Score
			}
		}
	}
	st := ExecStats{
		PostingsVisited: len(ps),
		DocsScored:      len(ps),
		DocsEverInTopK:  h.pushes,
		HeapOps:         h.pushes,
		Terms:           1,
	}
	return Execution{Results: h.results(), Stats: st}
}

// exhaustedDoc is the current document of a cursor that ran off its list;
// it sorts after every real document (IDs are dense from 0).
const exhaustedDoc = math.MaxInt32

// listCursor is one list's position in searchMaxScore. doc and impact cache
// the posting under the cursor so the per-candidate passes over the lists
// read this small struct, not the posting arrays; pl holds the list's
// BlockMax and Steps tables.
type listCursor struct {
	doc    int32
	impact float32
	pos    int
	ps     []index.Posting
	pl     *index.PostingList
}

// seek moves the cursor to pos and caches the posting there.
//
//gemini:hotpath
func (c *listCursor) seek(pos int) {
	c.pos = pos
	if pos < len(c.ps) {
		c.doc, c.impact = c.ps[pos].Doc, c.ps[pos].Impact
	} else {
		c.doc = exhaustedDoc
	}
}

// byMaxImpact orders posting lists by ascending score upper bound.
//
//gemini:hotpath
func byMaxImpact(a, b *index.PostingList) int {
	switch {
	case a.MaxImpact < b.MaxImpact:
		return -1
	case b.MaxImpact < a.MaxImpact:
		return 1
	}
	return 0
}

// searchMaxScore runs document-at-a-time MaxScore over >=2 lists: lists are
// ordered by ascending max impact; a prefix of "non-essential" lists whose
// cumulative upper bound cannot alone beat the current threshold is only
// probed (by binary search) for candidates produced by the remaining
// "essential" lists.
//
//gemini:hotpath
func (e *Engine) searchMaxScore(lists []*index.PostingList) Execution {
	//gemini:allow hotpath -- pdqsort over a non-capturing comparison: no allocation, and the permutation sort.Slice gave
	slices.SortFunc(lists, byMaxImpact)
	n := len(lists)

	var (
		ubStore   [stackTerms + 1]float32
		curStore  [stackTerms]listCursor
		heapStore [stackK]Result
	)
	prefixUB, cursors := ubStore[:], curStore[:]
	if n > stackTerms {
		//gemini:allow hotpath -- more terms than the stack arrays hold: no generated query, a long typed one
		prefixUB = make([]float32, n+1)
		//gemini:allow hotpath -- as above
		cursors = make([]listCursor, n)
	}
	prefixUB, cursors = prefixUB[:n+1], cursors[:n]
	h := heapOver(heapStore[:], e.k)

	// prefixUB[i] = sum of MaxImpact of lists[0..i-1].
	for i, l := range lists {
		prefixUB[i+1] = prefixUB[i] + l.MaxImpact
		cursors[i].ps, cursors[i].pl = l.Postings, l
		cursors[i].seek(0)
	}

	// The counters live in locals for the loop's duration; θ and full are
	// the heap's threshold() and full(), refreshed only when offer admits.
	var visited, scored, lookups, entered int
	var theta float32
	full := false

	// firstEssential is the index of the first essential list; lists before
	// it are non-essential. It only grows as the threshold rises.
	firstEssential := 0

	for {
		// Raise the non-essential boundary as far as the threshold allows.
		for full && firstEssential < n-1 && prefixUB[firstEssential+1] <= theta {
			firstEssential++
		}
		essential := cursors[firstEssential:]

		// One essential list left: each of its postings is the next
		// candidate, and one whose impact cannot pass θ even with every
		// non-essential bound is visited, scored and dropped. Skip the run
		// of them at one compare each (the test below, negated as written),
		// and a block whose BlockMax fails that test at one compare: float32
		// addition rounds monotonically, so each of its postings fails too.
		if len(essential) == 1 {
			c, ub := &essential[0], prefixUB[firstEssential]
			pos := c.pos
			for pos < len(c.ps) {
				b := pos / index.BlockSize
				end := min((b+1)*index.BlockSize, len(c.ps))
				if !(c.pl.BlockMax[b]+ub > theta) {
					pos = end
					continue
				}
				for pos < end && !(c.ps[pos].Impact+ub > theta) {
					pos++
				}
				if pos < end {
					break
				}
			}
			visited += pos - c.pos
			scored += pos - c.pos
			c.seek(pos)
		}

		// Find the minimum current document among essential lists.
		cand := int32(exhaustedDoc)
		for i := range essential {
			if d := essential[i].doc; d < cand {
				cand = d
			}
		}
		if cand == exhaustedDoc {
			break // all essential lists exhausted
		}

		// Score the candidate: essential contributions by advancing cursors,
		// plus an upper bound from non-essential lists.
		var score float32
		for i := range essential {
			c := &essential[i]
			if c.doc != cand {
				continue
			}
			score += c.impact
			visited++
			c.seek(c.pos + 1)
		}
		scored++

		// Only consult non-essential lists if the doc could still make it.
		if score+prefixUB[firstEssential] > theta {
			for i := firstEssential - 1; i >= 0; i-- {
				// Check whether even with list i..0 the doc can pass.
				if score+prefixUB[i+1] <= theta {
					break
				}
				imp, probes, ok := cursors[i].probe(cand)
				if ok {
					score += imp
				}
				lookups += probes
			}
			if h.offer(Result{Doc: cand, Score: score}) {
				entered++
				if full = len(h.items) >= h.k; full {
					theta = h.items[0].Score
				}
			}
		}
	}

	st := ExecStats{
		PostingsVisited: visited,
		Lookups:         lookups,
		DocsScored:      scored,
		DocsEverInTopK:  entered,
		HeapOps:         h.pushes,
		Terms:           n,
	}
	return Execution{Results: h.results(), Stats: st}
}

// probe looks doc up in a non-essential list and returns its impact, the
// step count of a binary search over the whole list for it (charged as
// Lookups, read from the list's Steps table), and whether the doc was found.
// A non-essential list is probed with rising documents, and the postings
// before the cursor hold smaller ones, so the host gallops from the cursor
// to doc's insertion point and leaves the cursor there; the cost model still
// prices the full-span search, step for step.
//
//gemini:hotpath
func (c *listCursor) probe(doc int32) (float32, int, bool) {
	ps, lo := c.ps, c.pos
	if lo < len(ps) && ps[lo].Doc < doc {
		// ps[lo].Doc < doc throughout; double the stride until ps[hi] is not
		// below doc or hi runs off the list, then bisect (lo, hi).
		hi, stride := lo+1, 1
		for hi < len(ps) && ps[hi].Doc < doc {
			lo = hi
			stride <<= 1
			hi = lo + stride
		}
		hi = min(hi, len(ps))
		lo++
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if ps[mid].Doc < doc {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
	}
	c.pos = lo
	if lo < len(ps) && ps[lo].Doc == doc {
		return ps[lo].Impact, int(c.pl.Steps[lo]), true
	}
	return 0, c.pl.MissSteps(lo), false
}
