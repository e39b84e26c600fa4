package index

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"gemini/internal/corpus"
)

func buildSmall(t testing.TB) (*corpus.Corpus, *Index) {
	t.Helper()
	c := corpus.Generate(corpus.SmallSpec())
	return c, Build(c)
}

func TestBuildBasics(t *testing.T) {
	c, ix := buildSmall(t)
	if ix.NumDocs() != len(c.Docs) {
		t.Fatalf("NumDocs = %d, want %d", ix.NumDocs(), len(c.Docs))
	}
	if ix.VocabSize() != c.Spec.VocabSize {
		t.Fatalf("VocabSize = %d, want %d", ix.VocabSize(), c.Spec.VocabSize)
	}
	wantAvg := float64(c.TotalTokens()) / float64(len(c.Docs))
	if math.Abs(ix.AvgDocLen()-wantAvg) > 1e-9 {
		t.Errorf("AvgDocLen = %v, want %v", ix.AvgDocLen(), wantAvg)
	}
	if ix.TotalPostings() == 0 {
		t.Fatal("no postings")
	}
}

func TestPostingListsSortedAndDeduped(t *testing.T) {
	_, ix := buildSmall(t)
	for term := 0; term < ix.VocabSize(); term++ {
		pl, err := ix.List(corpus.TermID(term))
		if err != nil {
			continue
		}
		if pl.Len() == 0 {
			t.Fatalf("term %d has an empty non-nil list", term)
		}
		for i := 1; i < pl.Len(); i++ {
			if pl.Postings[i].Doc <= pl.Postings[i-1].Doc {
				t.Fatalf("term %d postings not strictly ascending at %d", term, i)
			}
		}
	}
}

func TestMaxImpactInvariant(t *testing.T) {
	_, ix := buildSmall(t)
	for term := 0; term < ix.VocabSize(); term++ {
		pl, err := ix.List(corpus.TermID(term))
		if err != nil {
			continue
		}
		max := float32(0)
		for _, p := range pl.Postings {
			if p.Impact <= 0 {
				t.Fatalf("term %d non-positive impact %v", term, p.Impact)
			}
			if p.Impact > max {
				max = p.Impact
			}
		}
		if max != pl.MaxImpact {
			t.Fatalf("term %d MaxImpact = %v, actual max %v", term, pl.MaxImpact, max)
		}
	}
}

func TestIDFDecreasesWithDF(t *testing.T) {
	_, ix := buildSmall(t)
	type tl struct {
		df  int
		idf float64
	}
	var all []tl
	for term := 0; term < ix.VocabSize(); term++ {
		if pl, err := ix.List(corpus.TermID(term)); err == nil {
			all = append(all, tl{df: pl.Len(), idf: pl.IDF})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].df < all[j].df })
	for i := 1; i < len(all); i++ {
		if all[i].df > all[i-1].df && all[i].idf > all[i-1].idf {
			t.Fatalf("IDF not monotone: df %d->%d idf %v->%v",
				all[i-1].df, all[i].df, all[i-1].idf, all[i].idf)
		}
	}
}

func TestPopularTermHasLongList(t *testing.T) {
	c, ix := buildSmall(t)
	// Term 0 is the most popular vocabulary slot under the Zipf draw.
	pl0, err := ix.List(0)
	if err != nil {
		t.Fatal("most popular term missing")
	}
	if pl0.Len() < len(c.Docs)/4 {
		t.Errorf("popular term list len = %d, want >= %d", pl0.Len(), len(c.Docs)/4)
	}
}

func TestUnknownTerm(t *testing.T) {
	_, ix := buildSmall(t)
	if _, err := ix.List(corpus.TermID(ix.VocabSize())); err != ErrUnknownTerm {
		t.Errorf("out-of-range term: err = %v", err)
	}
	if _, err := ix.List(-1); err != ErrUnknownTerm {
		t.Errorf("negative term: err = %v", err)
	}
}

func TestListsDropsUnknown(t *testing.T) {
	c, ix := buildSmall(t)
	q := corpus.Query{Terms: []corpus.TermID{0, corpus.TermID(c.Spec.VocabSize + 5)}}
	ls := ix.AppendLists(nil, q)
	if len(ls) != 1 || ls[0].Term != 0 {
		t.Errorf("AppendLists = %v", ls)
	}
	// A caller's buffer is filled in place while the query fits in it.
	var buf [2]*PostingList
	if ls := ix.AppendLists(buf[:0], q); len(ls) != 1 || &ls[0] != &buf[0] {
		t.Errorf("AppendLists did not use the caller's buffer: %v", ls)
	}
}

// Every posting in the index must reference a document that actually
// contains the term — verified against the raw corpus.
func TestPostingsMatchCorpus(t *testing.T) {
	c, ix := buildSmall(t)
	for term := 0; term < 50; term++ { // spot-check the popular head
		pl, err := ix.List(corpus.TermID(term))
		if err != nil {
			continue
		}
		want := map[int32]bool{}
		for d, doc := range c.Docs {
			for _, tok := range doc {
				if tok == corpus.TermID(term) {
					want[int32(d)] = true
					break
				}
			}
		}
		if len(want) != pl.Len() {
			t.Fatalf("term %d df mismatch: index %d corpus %d", term, pl.Len(), len(want))
		}
		for _, p := range pl.Postings {
			if !want[p.Doc] {
				t.Fatalf("term %d posting doc %d not in corpus", term, p.Doc)
			}
		}
	}
}

// Property: higher tf in an otherwise comparable document yields higher
// impact — check BM25 monotonicity in tf directly.
func TestBM25MonotoneInTF(t *testing.T) {
	f := func(tfRaw uint8) bool {
		tf1 := float64(tfRaw%20) + 1
		tf2 := tf1 + 1
		dl, avg := 100.0, 100.0
		norm := func(tf float64) float64 {
			return tf * (BM25K1 + 1) / (tf + BM25K1*(1-BM25B+BM25B*dl/avg))
		}
		return norm(tf2) > norm(tf1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBuildDeterministic(t *testing.T) {
	c := corpus.Generate(corpus.SmallSpec())
	a := Build(c)
	b := Build(c)
	if a.TotalPostings() != b.TotalPostings() {
		t.Fatalf("posting totals differ")
	}
	for term := 0; term < a.VocabSize(); term++ {
		la, ea := a.List(corpus.TermID(term))
		lb, eb := b.List(corpus.TermID(term))
		if (ea == nil) != (eb == nil) {
			t.Fatalf("term %d presence differs", term)
		}
		if ea != nil {
			continue
		}
		if la.MaxImpact != lb.MaxImpact || la.IDF != lb.IDF {
			t.Fatalf("term %d stats differ", term)
		}
		for i := range la.Postings {
			if la.Postings[i] != lb.Postings[i] {
				t.Fatalf("term %d posting %d differs", term, i)
			}
		}
	}
}

func BenchmarkIndexBuild(b *testing.B) {
	c := corpus.Generate(corpus.SmallSpec())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(c)
	}
}
