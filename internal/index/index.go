// Package index builds and serves the inverted index of an Index Serving
// Node (ISN). Each vocabulary term maps to a posting list of (document,
// impact) pairs, where the impact is the precomputed BM25 contribution of
// that term to the document's score — the "impact-ordered" organization that
// selective-pruning engines (paper refs [21], [24]) rely on.
package index

import (
	"errors"
	"math"
	"math/bits"

	"gemini/internal/corpus"
	"gemini/internal/par"
)

// Posting is one (document, impact) entry of a posting list, sorted by
// ascending document ID within a list.
type Posting struct {
	Doc    int32
	Impact float32
}

// BlockSize is the number of postings one BlockMax entry bounds.
const BlockSize = 64

// rankDensity sets which lists carry a rank table: those holding at least one
// document in rankDensity. A table costs a RankWord per 64 documents of the
// shard whatever the list's length, so only the dense lists, where a probe
// would otherwise gallop furthest, carry one.
const rankDensity = 16

// RankWord is one 64-document word of a dense list's rank table: bit j of
// Members is set when the list holds document 64w+j, and Before counts the
// list's postings below document 64w.
type RankWord struct {
	Members uint64
	Before  int32
}

// PostingList holds all postings of one term plus the precomputed upper
// bounds used by MaxScore-style pruning and the probe cost table.
//
// BlockMax[b] is the largest impact among Postings[b*BlockSize:(b+1)*BlockSize]
// (the last block may be short), so MaxImpact is the largest BlockMax.
//
// Steps[i] is the 1-based depth of Postings[i] in the implicit tree of a
// binary search over the whole list (mid = ⌊(lo+hi)/2⌋ of [lo, hi)): the
// number of steps such a search takes to find Postings[i].Doc. A search for
// a document the list does not hold, whose insertion point is p, ends at an
// empty child of the deeper of Postings[p-1] and Postings[p] (one of the two
// is the other's ancestor), so it takes max(Steps[p-1], Steps[p]) steps, a
// neighbour outside the list counting 0.
//
// Ranks is nil unless the list holds at least one of every 16 documents of
// the shard; then it has a RankWord for every 64 documents of the shard, and
// Rank reads a document's place in the list from it.
type PostingList struct {
	Term      corpus.TermID
	Postings  []Posting
	MaxImpact float32
	IDF       float64
	BlockMax  []float32
	Steps     []uint8
	Ranks     []RankWord
}

// Len returns the posting list length (a Table II feature).
func (p *PostingList) Len() int { return len(p.Postings) }

// MissSteps is the step count of a binary search over the whole list for a
// document it does not hold, whose insertion point is pos (see Steps).
func (p *PostingList) MissSteps(pos int) int {
	n := 0
	if pos > 0 {
		n = int(p.Steps[pos-1])
	}
	if pos < len(p.Steps) {
		n = max(n, int(p.Steps[pos]))
	}
	return n
}

// Rank returns the number of the list's postings below doc, which is doc's
// insertion point in Postings, and whether the list holds doc. The list must
// have a rank table (Ranks is not nil) and doc must be one of the shard's
// documents.
func (p *PostingList) Rank(doc int32) (int, bool) {
	w := p.Ranks[uint32(doc)/64]
	bit := uint64(1) << (uint32(doc) % 64)
	return int(w.Before) + bits.OnesCount64(w.Members&(bit-1)), w.Members&bit != 0
}

// BM25 parameters (standard Robertson/Sparck-Jones defaults). Exported so
// the search package can derive analytic score bounds.
const (
	BM25K1 = 1.2
	BM25B  = 0.75
)

// Index is the immutable inverted index of one shard.
type Index struct {
	lists   []*PostingList // indexed by TermID; nil for absent terms
	numDocs int
	docLens []int32
}

// ErrUnknownTerm is returned when a term has no posting list.
var ErrUnknownTerm = errors.New("index: unknown term")

// Build constructs the inverted index for a corpus. The documents are cut
// into ranges, one per core, of at least minRangeDocs documents each, and
// each pass over them runs a range per goroutine: the first counts each
// term's document frequency in each range, which sizes every posting list
// and places each range's postings of it after the earlier ranges'; the
// second computes each (term, document) impact into its place. Each range
// visits its documents in ascending ID order, so each list comes out sorted
// by document, and a last pass over the lists takes their BlockMax, MaxImpact
// and Steps tables and the dense lists' rank tables. The lists, their
// postings and their tables are carved from one backing array each, so the
// allocation count does not grow with the vocabulary or the corpus.
func Build(c *corpus.Corpus) *Index {
	return build(c, min(par.DefaultWorkers(), len(c.Docs)/minRangeDocs))
}

// minRangeDocs is the fewest documents Build gives a range of their own:
// below it, a goroutine costs more than the range saves.
const minRangeDocs = 4096

// build is Build over the given number of document ranges (at least one).
func build(c *corpus.Corpus, ranges int) *Index {
	numDocs := len(c.Docs)
	ranges = max(1, min(ranges, numDocs))
	docLens := make([]int32, numDocs)
	totalLen, maxLen := 0, 0
	for d, doc := range c.Docs {
		docLens[d] = int32(len(doc))
		totalLen += len(doc)
		maxLen = max(maxLen, len(doc))
	}
	avgDocLen := float64(totalLen) / float64(numDocs)

	// Each range has a vocabulary-wide array of term frequencies (counts), a
	// buffer of the terms a document touched (terms; see countTerms), and
	// pos, a vocabulary-wide array that first counts each term's documents in
	// the range and then holds where the range writes its next posting.
	vocab := c.Spec.VocabSize
	counts := make([]int32, ranges*vocab)
	terms := make([]corpus.TermID, ranges*min(maxLen, vocab))
	pos := make([]int32, ranges*vocab)
	r := docRanges{docs: c.Docs, counts: counts, terms: terms, pos: pos, n: ranges}
	// One range runs inline rather than through par.Run, whose job closure
	// would add allocations to the ten TestBuildAllocsIndependentOfLists pins.
	if ranges == 1 {
		r.count(0)
	} else {
		par.Run(ranges, ranges, r.count)
	}

	numLists, numPostings, numBlocks, numDense := 0, 0, 0, 0
	for t := 0; t < vocab; t++ {
		n := 0
		for k := t; k < len(pos); k += vocab {
			n += int(pos[k])
		}
		if n > 0 {
			numLists++
			numPostings += n
			numBlocks += blocks(n)
			if dense(n, numDocs) {
				numDense++
			}
		}
	}
	words := (numDocs + 63) / 64
	store := make([]PostingList, numLists)
	postings := make([]Posting, numPostings)
	blockMax := make([]float32, numBlocks)
	steps := make([]uint8, numPostings)
	ranks := make([]RankWord, numDense*words)
	lists := make([]*PostingList, vocab)
	p, b, l := 0, 0, 0
	for t := 0; t < vocab; t++ {
		n := 0
		for k := t; k < len(pos); k += vocab {
			n, pos[k] = n+int(pos[k]), int32(n)
		}
		if n == 0 {
			continue
		}
		nb := blocks(n)
		idf := math.Log(1 + (float64(numDocs)-float64(n)+0.5)/(float64(n)+0.5))
		store[l] = PostingList{
			Term:     corpus.TermID(t),
			Postings: postings[p : p+n : p+n],
			IDF:      idf,
			BlockMax: blockMax[b : b+nb : b+nb],
			Steps:    steps[p : p+n : p+n],
		}
		if dense(n, numDocs) {
			store[l].Ranks, ranks = ranks[:words:words], ranks[words:]
		}
		lists[t] = &store[l]
		p, b, l = p+n, b+nb, l+1
	}

	r.lists, r.docLens, r.avgDocLen = lists, docLens, avgDocLen
	if ranges == 1 {
		r.fill(0)
		boundLists(store)
	} else {
		par.Run(ranges, ranges, r.fill)
		par.Run(ranges, len(store), func(j int) { boundLists(store[j : j+1]) })
	}

	return &Index{lists: lists, numDocs: numDocs, docLens: docLens}
}

// docRanges is what each of Build's passes over the documents reads and
// writes; range k is documents [k·len(docs)/n, (k+1)·len(docs)/n).
type docRanges struct {
	docs        [][]corpus.TermID
	counts, pos []int32
	terms       []corpus.TermID
	n           int
	lists       []*PostingList
	docLens     []int32
	avgDocLen   float64
}

// part returns range k's first document and its slices of the scratch.
func (r docRanges) part(k int) (lo, hi int, counts, pos []int32, terms []corpus.TermID) {
	vocab, m := len(r.counts)/r.n, len(r.terms)/r.n
	return k * len(r.docs) / r.n, (k + 1) * len(r.docs) / r.n,
		r.counts[k*vocab : (k+1)*vocab], r.pos[k*vocab : (k+1)*vocab], r.terms[k*m : k*m : (k+1)*m]
}

// count sets range k's pos to the number of its documents each term occurs
// in.
func (r docRanges) count(k int) {
	lo, hi, counts, df, terms := r.part(k)
	for _, doc := range r.docs[lo:hi] {
		terms = countTerms(doc, counts, terms)
		for _, t := range terms {
			df[t]++
			counts[t] = 0
		}
	}
}

// fill writes range k's postings, each term's from where pos says the range's
// part of its list starts.
func (r docRanges) fill(k int) {
	lo, hi, counts, pos, terms := r.part(k)
	for d := lo; d < hi; d++ {
		terms = countTerms(r.docs[d], counts, terms)
		dl := float64(r.docLens[d])
		for _, t := range terms {
			pl, i := r.lists[t], pos[t]
			pos[t]++
			tf := float64(counts[t])
			counts[t] = 0
			norm := tf * (BM25K1 + 1) / (tf + BM25K1*(1-BM25B+BM25B*dl/r.avgDocLen))
			pl.Postings[i] = Posting{Doc: int32(d), Impact: float32(pl.IDF * norm)}
		}
	}
}

// boundLists takes each list's BlockMax, MaxImpact and Steps tables, and its
// rank table if it has one, from its postings.
func boundLists(store []PostingList) {
	for j := range store {
		pl := &store[j]
		for i, pst := range pl.Postings {
			bm := &pl.BlockMax[i/BlockSize]
			*bm = max(*bm, pst.Impact)
			pl.MaxImpact = max(pl.MaxImpact, pst.Impact)
		}
		fillSteps(pl.Steps, 1)
		if pl.Ranks != nil {
			for _, pst := range pl.Postings {
				pl.Ranks[pst.Doc/64].Members |= 1 << (pst.Doc % 64)
			}
			before := 0
			for w := range pl.Ranks {
				pl.Ranks[w].Before = int32(before)
				before += bits.OnesCount64(pl.Ranks[w].Members)
			}
		}
	}
}

// dense reports whether a list of n postings over numDocs documents gets a
// rank table: it holds at least one document in rankDensity.
func dense(n, numDocs int) bool { return n*rankDensity >= numDocs }

// countTerms adds doc's term frequencies to counts and returns terms refilled
// with the distinct terms doc touched; the caller resets their counts.
func countTerms(doc []corpus.TermID, counts []int32, terms []corpus.TermID) []corpus.TermID {
	terms = terms[:0]
	for _, t := range doc {
		if counts[t] == 0 {
			terms = append(terms, t)
		}
		counts[t]++
	}
	return terms
}

// blocks is the number of BlockMax entries of a list of n postings.
func blocks(n int) int { return (n + BlockSize - 1) / BlockSize }

// fillSteps sets each entry of steps to its position's depth in the binary
// search tree over steps, the root, ⌊len/2⌋, at depth.
func fillSteps(steps []uint8, depth uint8) {
	for len(steps) > 0 {
		mid := len(steps) / 2
		steps[mid] = depth
		fillSteps(steps[:mid], depth+1)
		steps, depth = steps[mid+1:], depth+1
	}
}

// NumDocs returns the number of documents in the shard.
func (ix *Index) NumDocs() int { return ix.numDocs }

// List returns the posting list for a term.
func (ix *Index) List(t corpus.TermID) (*PostingList, error) {
	if int(t) < 0 || int(t) >= len(ix.lists) || ix.lists[t] == nil {
		return nil, ErrUnknownTerm
	}
	return ix.lists[t], nil
}

// AppendLists appends the posting list of each query term to dst, silently
// dropping unknown terms, and returns the extended slice. A caller that
// passes a buffer of its own (the engine passes a stack array) pays no
// allocation while the query fits in it.
func (ix *Index) AppendLists(dst []*PostingList, q corpus.Query) []*PostingList {
	for _, t := range q.Terms {
		if pl, err := ix.List(t); err == nil {
			dst = append(dst, pl)
		}
	}
	return dst
}

// VocabSize returns the size of the term space (including absent terms).
func (ix *Index) VocabSize() int { return len(ix.lists) }

// TotalPostings returns the total number of postings stored.
func (ix *Index) TotalPostings() int {
	n := 0
	for _, l := range ix.lists {
		if l != nil {
			n += len(l.Postings)
		}
	}
	return n
}
