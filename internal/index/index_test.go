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

// stepsLengths are the list lengths TestStepsMatchBinarySearch covers: every
// length to 2100, then 2^k-1, 2^k and 2^k+1 up to 2^17, where the search
// tree gains a level.
func stepsLengths() []int {
	var ns []int
	for n := 0; n <= 2100; n++ {
		ns = append(ns, n)
	}
	for k := 12; k <= 17; k++ {
		ns = append(ns, 1<<k-1, 1<<k, 1<<k+1)
	}
	return ns
}

// TestStepsMatchBinarySearch holds the Steps table and MissSteps to the step
// count of a literal binary search over the whole list: a hit on every
// posting and a miss before, between and after them. The list's documents
// are the odd numbers, so every even number is a miss whose insertion point
// is half of it.
func TestStepsMatchBinarySearch(t *testing.T) {
	for _, n := range stepsLengths() {
		pl := &PostingList{Steps: make([]uint8, n)}
		fillSteps(pl.Steps, 1)
		docAt := func(i int) int32 { return int32(2*i + 1) }
		for i := 0; i < n; i++ {
			want, found := refSearch(n, docAt, docAt(i))
			if !found || int(pl.Steps[i]) != want {
				t.Fatalf("n=%d: Steps[%d] = %d, binary search finds it in %d", n, i, pl.Steps[i], want)
			}
		}
		for p := 0; p <= n; p++ {
			want, found := refSearch(n, docAt, int32(2*p))
			if found || pl.MissSteps(p) != want {
				t.Fatalf("n=%d: MissSteps(%d) = %d, binary search misses in %d", n, p, pl.MissSteps(p), want)
			}
		}
	}
}

// blockCorpus is a corpus in which term 0 has a posting list of exactly n
// postings with impacts that vary along the list, and term 1 fills some of
// the same documents so document lengths vary too.
func blockCorpus(n int) *corpus.Corpus {
	docs := make([][]corpus.TermID, n)
	for d := range docs {
		for range d%5 + 1 {
			docs[d] = append(docs[d], 0)
		}
		for range (d * 7) % 11 {
			docs[d] = append(docs[d], 1)
		}
	}
	return &corpus.Corpus{Spec: corpus.Spec{NumDocs: n, VocabSize: 2}, Docs: docs}
}

func checkBlockMax(t *testing.T, pl *PostingList) {
	t.Helper()
	if want := (pl.Len() + BlockSize - 1) / BlockSize; len(pl.BlockMax) != want {
		t.Fatalf("term %d: %d postings in %d blocks, want %d", pl.Term, pl.Len(), len(pl.BlockMax), want)
	}
	top := float32(0)
	for b, bm := range pl.BlockMax {
		block := pl.Postings[b*BlockSize : min((b+1)*BlockSize, pl.Len())]
		attained := false
		for _, p := range block {
			if p.Impact > bm {
				t.Fatalf("term %d block %d: impact %v above BlockMax %v", pl.Term, b, p.Impact, bm)
			}
			attained = attained || p.Impact == bm
		}
		if !attained {
			t.Fatalf("term %d block %d: BlockMax %v is no posting's impact", pl.Term, b, bm)
		}
		top = max(top, bm)
	}
	if top != pl.MaxImpact {
		t.Fatalf("term %d: MaxImpact %v, largest BlockMax %v", pl.Term, pl.MaxImpact, top)
	}
}

// TestBlockMaxBoundsBlocks checks that each BlockMax is the largest impact of
// its block, on lists one short of, at and one past a block boundary and on
// every list of the small corpus.
func TestBlockMaxBoundsBlocks(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 128, 129} {
		pl, err := Build(blockCorpus(n)).List(0)
		if err != nil || pl.Len() != n {
			t.Fatalf("n=%d: term 0 list %v, err %v", n, pl, err)
		}
		checkBlockMax(t, pl)
	}
	_, ix := buildSmall(t)
	for term := 0; term < ix.VocabSize(); term++ {
		if pl, err := ix.List(corpus.TermID(term)); err == nil {
			checkBlockMax(t, pl)
		}
	}
}

// TestBuildAllocsIndependentOfLists pins that Build carves its lists, their
// postings and both tables from one array each: the small corpus with
// hundreds of lists costs the allocations a two-list corpus does.
func TestBuildAllocsIndependentOfLists(t *testing.T) {
	const want = 10
	small := corpus.Generate(corpus.SmallSpec())
	tiny := blockCorpus(3)
	for name, c := range map[string]*corpus.Corpus{"SmallSpec": small, "two lists": tiny} {
		if n := testing.AllocsPerRun(3, func() { Build(c) }); n != want {
			t.Errorf("%s: Build makes %v allocations, want %d", name, n, want)
		}
	}
}
