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

// PostingList holds all postings of one term plus the precomputed upper
// bound used by MaxScore-style pruning.
type PostingList struct {
	Term      corpus.TermID
	Postings  []Posting
	MaxImpact float32
	IDF       float64
}

// Len returns the posting list length (a Table II feature).
func (p *PostingList) Len() int { return len(p.Postings) }

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

// Build constructs the inverted index for a corpus: one pass to accumulate
// term frequencies per document, then BM25 impact computation per posting.
func Build(c *corpus.Corpus) *Index {
	numDocs := len(c.Docs)
	docLens := make([]int32, numDocs)
	totalLen := 0
	for d, doc := range c.Docs {
		docLens[d] = int32(len(doc))
		totalLen += len(doc)
	}
	avgDocLen := float64(totalLen) / float64(numDocs)

	// Accumulate tf per (term, doc). Documents are visited in ascending ID
	// order, so appending keeps posting lists sorted by document. A
	// document's counts live in one array over the vocabulary; terms lists
	// the ones it touched, in first-occurrence order, so only those are read
	// back and reset. That order reaches no list: each term's list gets this
	// document once, after every earlier document.
	type tfEntry struct {
		doc int32
		tf  int32
	}
	perTerm := make([][]tfEntry, c.Spec.VocabSize)
	counts := make([]int32, c.Spec.VocabSize)
	var terms []corpus.TermID
	for d, doc := range c.Docs {
		terms = terms[:0]
		for _, t := range doc {
			if counts[t] == 0 {
				terms = append(terms, t)
			}
			counts[t]++
		}
		for _, t := range terms {
			perTerm[t] = append(perTerm[t], tfEntry{doc: int32(d), tf: counts[t]})
			counts[t] = 0
		}
	}

	lists := make([]*PostingList, c.Spec.VocabSize)
	for t, entries := range perTerm {
		if len(entries) == 0 {
			continue
		}
		df := float64(len(entries))
		idf := math.Log(1 + (float64(numDocs)-df+0.5)/(df+0.5))
		pl := &PostingList{
			Term:     corpus.TermID(t),
			Postings: make([]Posting, len(entries)),
			IDF:      idf,
		}
		for i, e := range entries {
			tf := float64(e.tf)
			dl := float64(docLens[e.doc])
			norm := tf * (BM25K1 + 1) / (tf + BM25K1*(1-BM25B+BM25B*dl/avgDocLen))
			imp := float32(idf * norm)
			pl.Postings[i] = Posting{Doc: e.doc, Impact: imp}
			if imp > pl.MaxImpact {
				pl.MaxImpact = imp
			}
		}
		lists[t] = pl
	}

	return &Index{
		lists:     lists,
		numDocs:   numDocs,
		avgDocLen: avgDocLen,
		docLens:   docLens,
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
