// Package index builds and serves the inverted index of an Index Serving
// Node (ISN). Each vocabulary term maps to a posting list of (document,
// impact) pairs, where the impact is the precomputed BM25 contribution of
// that term to the document's score — the "impact-ordered" organization that
// selective-pruning engines (paper refs [21], [24]) rely on.
package index

import (
	"errors"
	"math"

	"gemini/internal/corpus"
)

// Posting is one (document, impact) entry of a posting list, sorted by
// ascending document ID within a list.
type Posting struct {
	Doc    int32
	Impact float32
}

// BlockSize is the number of postings one BlockMax entry bounds.
const BlockSize = 64

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
type PostingList struct {
	Term      corpus.TermID
	Postings  []Posting
	MaxImpact float32
	IDF       float64
	BlockMax  []float32
	Steps     []uint8
}

// Len returns the posting list length (a Table II feature).
func (p *PostingList) Len() int { return len(p.Postings) }

// MissSteps is the step count of a binary search over the whole list for a
// document it does not hold, whose insertion point is pos (see Steps).
//
//gemini:hotpath
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

// BM25 parameters (standard Robertson/Sparck-Jones defaults). Exported so
// the search package can derive analytic score bounds.
const (
	BM25K1 = 1.2
	BM25B  = 0.75
)

// Index is the immutable inverted index of one shard.
type Index struct {
	lists     []*PostingList // indexed by TermID; nil for absent terms
	numDocs   int
	avgDocLen float64
	docLens   []int32
}

// ErrUnknownTerm is returned when a term has no posting list.
var ErrUnknownTerm = errors.New("index: unknown term")

// Build constructs the inverted index for a corpus in two passes over the
// documents: the first counts each term's document frequency, which sizes
// every posting list, and the second computes each (term, document) impact
// into its place. Documents are visited in ascending ID order, so each list
// comes out sorted by document. The lists, their postings and their two
// tables are carved from one backing array each, so the allocation count
// does not grow with the vocabulary or the corpus.
func Build(c *corpus.Corpus) *Index {
	numDocs := len(c.Docs)
	docLens := make([]int32, numDocs)
	totalLen, maxLen := 0, 0
	for d, doc := range c.Docs {
		docLens[d] = int32(len(doc))
		totalLen += len(doc)
		maxLen = max(maxLen, len(doc))
	}
	avgDocLen := float64(totalLen) / float64(numDocs)

	// A document's term frequencies live in one array over the vocabulary;
	// terms lists the ones it touched, in first-occurrence order, so only
	// those are read back and reset. That order reaches no list: each term's
	// list gets this document once, after every earlier document.
	vocab := c.Spec.VocabSize
	counts := make([]int32, vocab)
	terms := make([]corpus.TermID, 0, min(maxLen, vocab))
	df := make([]int32, vocab)
	for _, doc := range c.Docs {
		terms = countTerms(doc, counts, terms)
		for _, t := range terms {
			df[t]++
			counts[t] = 0
		}
	}

	numLists, numPostings, numBlocks := 0, 0, 0
	for _, n := range df {
		if n > 0 {
			numLists++
			numPostings += int(n)
			numBlocks += blocks(int(n))
		}
	}
	store := make([]PostingList, numLists)
	postings := make([]Posting, numPostings)
	blockMax := make([]float32, numBlocks)
	steps := make([]uint8, numPostings)
	lists := make([]*PostingList, vocab)
	p, b := 0, 0
	for t, n := range df {
		if n == 0 {
			continue
		}
		pl := &store[0]
		store = store[1:]
		nb := blocks(int(n))
		idf := math.Log(1 + (float64(numDocs)-float64(n)+0.5)/(float64(n)+0.5))
		*pl = PostingList{
			Term:     corpus.TermID(t),
			Postings: postings[p : p+int(n) : p+int(n)],
			IDF:      idf,
			BlockMax: blockMax[b : b+nb : b+nb],
			Steps:    steps[p : p+int(n) : p+int(n)],
		}
		fillSteps(pl.Steps, 1)
		lists[t] = pl
		p, b = p+int(n), b+nb
		df[t] = 0 // from here on, the number of postings written
	}

	for d, doc := range c.Docs {
		terms = countTerms(doc, counts, terms)
		dl := float64(docLens[d])
		for _, t := range terms {
			pl, i := lists[t], df[t]
			df[t]++
			tf := float64(counts[t])
			counts[t] = 0
			norm := tf * (BM25K1 + 1) / (tf + BM25K1*(1-BM25B+BM25B*dl/avgDocLen))
			imp := float32(pl.IDF * norm)
			pl.Postings[i] = Posting{Doc: int32(d), Impact: imp}
			pl.MaxImpact = max(pl.MaxImpact, imp)
			bm := &pl.BlockMax[i/BlockSize]
			*bm = max(*bm, imp)
		}
	}

	return &Index{
		lists:     lists,
		numDocs:   numDocs,
		avgDocLen: avgDocLen,
		docLens:   docLens,
	}
}

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

// AvgDocLen returns the average document length in tokens.
func (ix *Index) AvgDocLen() float64 { return ix.avgDocLen }

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
