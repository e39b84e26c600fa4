package index

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"gemini/internal/corpus"
)

// refBuild is Build as it was before the counter array: a fresh map of term
// frequencies per document, its keys sorted with sort.Slice, one append-grown
// slice per term. BlockMax is a separate pass over each block and Steps
// counts the steps of a literal binary search for each posting. Build must
// return the same Index.
func refBuild(c *corpus.Corpus) *Index {
	numDocs := len(c.Docs)
	docLens := make([]int32, numDocs)
	totalLen := 0
	for d, doc := range c.Docs {
		docLens[d] = int32(len(doc))
		totalLen += len(doc)
	}
	avgDocLen := float64(totalLen) / float64(numDocs)

	type tfEntry struct {
		doc int32
		tf  int32
	}
	perTerm := make([][]tfEntry, c.Spec.VocabSize)
	for d, doc := range c.Docs {
		counts := map[corpus.TermID]int32{}
		for _, t := range doc {
			counts[t]++
		}
		terms := make([]corpus.TermID, 0, len(counts))
		for t := range counts {
			terms = append(terms, t)
		}
		sort.Slice(terms, func(i, j int) bool { return terms[i] < terms[j] })
		for _, t := range terms {
			perTerm[t] = append(perTerm[t], tfEntry{doc: int32(d), tf: counts[t]})
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
		for lo := 0; lo < len(pl.Postings); lo += BlockSize {
			bm := float32(0)
			for _, p := range pl.Postings[lo:min(lo+BlockSize, len(pl.Postings))] {
				if p.Impact > bm {
					bm = p.Impact
				}
			}
			pl.BlockMax = append(pl.BlockMax, bm)
		}
		docAt := func(i int) int32 { return pl.Postings[i].Doc }
		pl.Steps = make([]uint8, len(pl.Postings))
		for i, p := range pl.Postings {
			steps, _ := refSearch(len(pl.Postings), docAt, p.Doc)
			pl.Steps[i] = uint8(steps)
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

// refSearch is the binary search probe ran over the whole list before the
// Steps table, mid = (lo+hi)/2 of [lo, hi): it looks for doc among n
// ascending documents docAt(0..n-1) and returns its step count and whether it
// found doc.
func refSearch(n int, docAt func(int) int32, doc int32) (int, bool) {
	lo, hi, steps := 0, n, 0
	for lo < hi {
		steps++
		mid := (lo + hi) / 2
		d := docAt(mid)
		switch {
		case d == doc:
			return steps, true
		case d < doc:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return steps, false
}

// docBreak ends a document in corpusFrom's encoding.
const docBreak = 0xff

// corpusFrom decodes a small corpus from bytes: the first byte sets the
// vocabulary size (1–64), each later byte is a term (its value modulo the
// vocabulary) or a docBreak. Small vocabularies make repeated terms and the
// first and last term IDs common; adjacent breaks make empty documents. There
// is always at least one document, so the average length is a number.
func corpusFrom(data []byte) *corpus.Corpus {
	vocab := 1
	if len(data) > 0 {
		vocab += int(data[0]) % 64
		data = data[1:]
	}
	docs := [][]corpus.TermID{nil}
	for _, b := range data {
		if b == docBreak {
			docs = append(docs, nil)
			continue
		}
		last := len(docs) - 1
		docs[last] = append(docs[last], corpus.TermID(int(b)%vocab))
	}
	return &corpus.Corpus{Spec: corpus.Spec{NumDocs: len(docs), VocabSize: vocab}, Docs: docs}
}

// randomCorpusBytes draws an input for corpusFrom with about one break in
// six bytes.
func randomCorpusBytes(rng *rand.Rand) []byte {
	data := make([]byte, 1+rng.Intn(200))
	for i := range data {
		data[i] = byte(rng.Intn(255))
		if i > 0 && rng.Intn(6) == 0 {
			data[i] = docBreak
		}
	}
	return data
}

func checkBuildMatchesReference(t *testing.T, name string, c *corpus.Corpus) {
	t.Helper()
	if got, want := Build(c), refBuild(c); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Build differs from the reference builder", name)
	}
}

// TestBuildMatchesReference holds Build to refBuild, reflect.DeepEqual on the
// whole Index, at both corpus scales the platform builds and on random small
// corpora.
func TestBuildMatchesReference(t *testing.T) {
	checkBuildMatchesReference(t, "SmallSpec", corpus.Generate(corpus.SmallSpec()))
	if !testing.Short() {
		checkBuildMatchesReference(t, "DefaultSpec", corpus.Generate(corpus.DefaultSpec()))
	}
	rng := rand.New(rand.NewSource(5))
	for range 300 {
		checkBuildMatchesReference(t, "random", corpusFrom(randomCorpusBytes(rng)))
	}
}

func FuzzIndexBuild(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, docBreak, docBreak, 0})
	f.Add([]byte{7, 0, 6, 6, 6, 6, docBreak, 3, 6, 0, docBreak})
	rng := rand.New(rand.NewSource(9))
	for range 4 {
		f.Add(randomCorpusBytes(rng))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkBuildMatchesReference(t, "fuzz", corpusFrom(data))
	})
}
