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
	"gemini/internal/par"
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

// Engine evaluates queries against an index shard. It only reads after
// construction, so one engine serves any number of goroutines.
type Engine struct {
	ix  *index.Index
	k   int
	alg Algorithm
	// one is the one-term table: one[t] is the Execution of a query whose
	// one known term is t (the zero Execution where t has no list), its
	// Results carved from one backing array. nil under AlgExhaustive.
	one []Execution
}

// NewEngine creates an engine returning top-k results (k<=0 means DefaultK).
// It evaluates every term of the index alone once, on every core, so that a
// one-term Search is a copy (see oneTermTable).
func NewEngine(ix *index.Index, k int) *Engine {
	return NewEngineWith(ix, k, AlgMaxScore)
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
		one := e.one[lists[0].Term]
		// The table's Results are shared: the caller gets its own copy, the
		// one allocation a search keeps.
		out := make([]Result, len(one.Results))
		copy(out, one.Results)
		return Execution{Results: out, Stats: one.Stats}
	default:
		return e.searchMaxScore(lists)
	}
}

// oneTermTable evaluates every term of ix alone at result-set size k: entry t
// is searchSingle's Execution of term t's list, or the zero Execution where
// the index has no list for t. Each term's Results take min(k, len) slots of
// one backing array, placed by a count and a prefix sum before the terms are
// scanned on every core (par.Run), each into its own slots, so the table is
// the same at any GOMAXPROCS.
func oneTermTable(ix *index.Index, k int) []Execution {
	one := make([]Execution, ix.VocabSize())
	off := make([]int, len(one)+1)
	for t := range one {
		n := 0
		if pl, err := ix.List(corpus.TermID(t)); err == nil {
			n = min(k, pl.Len())
		}
		off[t+1] = off[t] + n
	}
	store := make([]Result, off[len(one)])
	par.Run(par.DefaultWorkers(), len(one), func(t int) {
		if pl, err := ix.List(corpus.TermID(t)); err == nil {
			dst := store[off[t]:off[t+1]:off[t+1]]
			one[t] = Execution{Results: dst, Stats: searchSingle(pl, k, dst)}
		}
	})
	return one
}

// searchSingle scans a single posting list into dst, which has min(k, len)
// slots, and returns the scan's counters: no pruning is possible for a
// doc-ordered disjunction of one term, so cost is linear in list length —
// the paper's observation that service time tracks the posting list,
// modulated for multi-term queries by pruning. The first k postings fill the
// heap; after that skipRun, with no non-essential bound and no document
// bound, passes over the postings that cannot enter (one compare each, a
// block at one compare when its BlockMax cannot), and each one it stops at
// replaces the root. Every posting is visited and scored, so those two
// counters are the list length and only heap entries are counted.
func searchSingle(pl *index.PostingList, k int, dst []Result) ExecStats {
	var store [stackK]Result
	h := heapOver(store[:], k)
	ps := pl.Postings
	fill := min(k, len(ps))
	for _, p := range ps[:fill] {
		h.push(Result{Doc: p.Doc, Score: p.Impact})
	}
	if fill == k {
		theta := h.items[0].Score
		for pos := fill; ; pos++ {
			if pos = skipRun(ps, pl.BlockMax, pos, exhaustedDoc, 0, theta); pos == len(ps) {
				break
			}
			h.replaceMin(Result{Doc: ps[pos].Doc, Score: ps[pos].Impact})
			theta = h.items[0].Score
		}
	}
	h.sortInto(dst)
	return ExecStats{
		PostingsVisited: len(ps),
		DocsScored:      len(ps),
		DocsEverInTopK:  h.pushes,
		HeapOps:         h.pushes,
		Terms:           1,
	}
}

// exhaustedDoc is the current document of a cursor that ran off its list;
// it sorts after every real document (IDs are dense from 0).
const exhaustedDoc = math.MaxInt32

// listCursor is one list's position in searchMaxScore. doc and impact cache
// the posting under the cursor so the per-candidate passes over the lists
// read this small struct, not the posting arrays; pl holds the list's
// BlockMax, Steps and rank tables.
type listCursor struct {
	doc    int32
	impact float32
	pos    int
	ps     []index.Posting
	pl     *index.PostingList
}

// seek moves the cursor to pos and caches the posting there.
func (c *listCursor) seek(pos int) {
	c.pos = pos
	if pos < len(c.ps) {
		c.doc, c.impact = c.ps[pos].Doc, c.ps[pos].Impact
	} else {
		c.doc = exhaustedDoc
	}
}

// byMaxImpact orders posting lists by ascending score upper bound.
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
// The host loop has two states. While two or more lists are essential, each
// turn takes the lowest essential document; when one list alone holds it,
// that list's postings below every other essential cursor are candidates of
// that list alone, and the run of them that cannot pass θ is skipped (see
// skipRun) before the turn scores the next candidate. Once one essential list
// is left, which lasts to the end, the tail loop walks it with skipRun and
// scores each posting that survives. Both keep every counter of the
// one-candidate-at-a-time loop (DESIGN.md §10).
func (e *Engine) searchMaxScore(lists []*index.PostingList) Execution {
	// Pdqsort over a non-capturing comparison: no allocation, and the permutation sort.Slice gave.
	slices.SortFunc(lists, byMaxImpact)
	n := len(lists)

	var (
		ubStore   [stackTerms + 1]float32
		curStore  [stackTerms]listCursor
		heapStore [stackK]Result
	)
	prefixUB, cursors := ubStore[:], curStore[:]
	if n > stackTerms {
		// More terms than the stack arrays hold: no generated query, a long typed one.
		prefixUB = make([]float32, n+1)
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
		if firstEssential == n-1 {
			break // one essential list left: the tail loop below
		}
		essential, ub := cursors[firstEssential:], prefixUB[firstEssential]

		// The lowest essential document, the cursor on it, and the lowest
		// document of the other cursors.
		low, cand, next := 0, essential[0].doc, int32(exhaustedDoc)
		for i := 1; i < len(essential); i++ {
			switch d := essential[i].doc; {
			case d < cand:
				low, cand, next = i, d, cand
			case d < next:
				next = d
			}
		}
		if cand == exhaustedDoc {
			break // all essential lists exhausted, the last one too
		}
		if cand < next {
			// A bounded run: θ and the boundary stay put while its
			// candidates are dropped, so each is one visited and scored
			// posting. A run that stops short of next stops at a candidate
			// that passes, which the turn scores below.
			c := &essential[low]
			pos := skipRun(c.ps, c.pl.BlockMax, c.pos, next, ub, theta)
			visited += pos - c.pos
			scored += pos - c.pos
			c.seek(pos)
			if c.doc >= next {
				continue
			}
			cand = c.doc
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
		if score+ub > theta {
			score, probes := complete(cursors[:firstEssential], prefixUB, cand, score, theta)
			lookups += probes
			if h.offer(Result{Doc: cand, Score: score}) {
				entered++
				if full = len(h.items) >= h.k; full {
					theta = h.items[0].Score
				}
			}
		}
	}

	// The tail loop: lists[n-1] is the one essential list, so each of its
	// postings from the cursor on is the next candidate, visited and scored.
	// The boundary can rise no further, and the heap is full (the boundary
	// only rises then), so an admission is a replacement and θ its new root.
	// An exhausted last list, where the loop above ran out, makes this a
	// no-op.
	c, ub := &cursors[n-1], prefixUB[n-1]
	ps, blockMax := c.ps, c.pl.BlockMax
	visited += len(ps) - c.pos
	scored += len(ps) - c.pos
	for pos := c.pos; ; pos++ {
		if pos = skipRun(ps, blockMax, pos, exhaustedDoc, ub, theta); pos == len(ps) {
			break
		}
		p := ps[pos]
		score, probes := complete(cursors[:n-1], prefixUB, p.Doc, p.Impact, theta)
		lookups += probes
		if h.offer(Result{Doc: p.Doc, Score: score}) {
			entered++
			theta = h.items[0].Score
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

// skipRun returns the position of the first of ps[pos:] that is not a
// dropped candidate of its list alone: a posting whose document is at or
// past bound, one whose impact with the non-essential bound ub can pass θ
// (the turn's test, negated as written), or len(ps). A block whose last
// document is below bound and whose BlockMax fails that test is passed over
// at one compare: float32 addition rounds monotonically, so each of its
// postings fails too.
func skipRun(ps []index.Posting, blockMax []float32, pos int, bound int32, ub, theta float32) int {
	for pos < len(ps) {
		b := pos / index.BlockSize
		end := min((b+1)*index.BlockSize, len(ps))
		if ps[end-1].Doc < bound && !(blockMax[b]+ub > theta) {
			pos = end
			continue
		}
		for pos < end && ps[pos].Doc < bound && !(ps[pos].Impact+ub > theta) {
			pos++
		}
		if pos < end {
			break
		}
	}
	return pos
}

// complete adds to score, the candidate doc's essential score, what the
// non-essential lists hold for it, probing them from the highest bound down
// while score and the bounds of the lists left can still beat θ. It returns
// the score and the probes' Lookups.
func complete(nonEssential []listCursor, prefixUB []float32, doc int32, score, theta float32) (float32, int) {
	lookups := 0
	for i := len(nonEssential) - 1; i >= 0; i-- {
		// Check whether even with list i..0 the doc can pass.
		if score+prefixUB[i+1] <= theta {
			break
		}
		imp, probes, ok := nonEssential[i].probe(doc)
		if ok {
			score += imp
		}
		lookups += probes
	}
	return score, lookups
}

// probe looks doc up in a non-essential list and returns its impact, the
// step count of a binary search over the whole list for it (charged as
// Lookups, read from the list's Steps table), and whether the doc was found.
// A dense list answers from its rank table at one popcount. A sparse one is
// probed with rising documents, and the postings before the cursor hold
// smaller ones, so the host gallops from the cursor to doc's insertion point
// and leaves the cursor there. Either way the cost model still prices the
// full-span search, step for step.
func (c *listCursor) probe(doc int32) (float32, int, bool) {
	if c.pl.Ranks != nil {
		lo, ok := c.pl.Rank(doc)
		if ok {
			return c.ps[lo].Impact, int(c.pl.Steps[lo]), true
		}
		return 0, c.pl.MissSteps(lo), false
	}
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
