package search

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"gemini/internal/corpus"
	"gemini/internal/index"
	"gemini/internal/stats"
)

// The reference kernels: searchSingle and searchMaxScore as they stood before
// the host loops were rewritten — one offer and three counter increments per
// posting, a length-guarded double index per list per candidate, sort.Slice,
// a heap allocation per scratch slice. ExecStats prices every simulated
// service time, so the contract of the rewritten loops is the whole Execution
// of these, field for field and bit for bit.

func refSearch(e *Engine, q corpus.Query) Execution {
	lists := e.ix.AppendLists(nil, q)
	switch {
	case len(lists) == 0:
		return Execution{}
	case len(lists) == 1:
		return refSearchSingle(e, lists[0])
	default:
		return refSearchMaxScore(e, lists)
	}
}

func refSearchSingle(e *Engine, pl *index.PostingList) Execution {
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

func refSearchMaxScore(e *Engine, lists []*index.PostingList) Execution {
	sort.Slice(lists, func(i, j int) bool { return lists[i].MaxImpact < lists[j].MaxImpact })
	n := len(lists)

	prefixUB := make([]float32, n+1)
	for i, l := range lists {
		prefixUB[i+1] = prefixUB[i] + l.MaxImpact
	}

	cursors := make([]int, n)
	h := newTopKHeap(e.k)
	st := ExecStats{Terms: n}
	firstEssential := 0

	for {
		theta := h.threshold()
		for firstEssential < n-1 && h.full() && prefixUB[firstEssential+1] <= theta {
			firstEssential++
		}

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
			break
		}

		var score float32
		for i := firstEssential; i < n; i++ {
			if cursors[i] < len(lists[i].Postings) && lists[i].Postings[cursors[i]].Doc == cand {
				score += lists[i].Postings[cursors[i]].Impact
				cursors[i]++
				st.PostingsVisited++
			}
		}
		st.DocsScored++

		theta = h.threshold()
		if score+prefixUB[firstEssential] > theta {
			for i := firstEssential - 1; i >= 0; i-- {
				if score+prefixUB[i+1] <= theta {
					break
				}
				imp, probes, ok := refProbe(lists[i], cand)
				if ok {
					score += imp
				}
				st.Lookups += probes
			}
			if h.offer(Result{Doc: cand, Score: score}) {
				st.DocsEverInTopK++
			}
		}
	}

	st.HeapOps = h.pushes
	return Execution{Results: h.results(), Stats: st}
}

// meanEps is the floor both means clamp a value to, so that a zero impact
// leaves them defined.
const meanEps = 1e-12

// geometricMean is exp of the mean logarithm, each value clamped to meanEps
// and the logarithms summed in order.
func geometricMean(values []float64) float64 {
	sumLog := 0.0
	for _, v := range values {
		sumLog += math.Log(max(v, meanEps))
	}
	return math.Exp(sumLog / float64(len(values)))
}

// harmonicMean is the count over the sum of reciprocals, each value clamped
// to meanEps and the reciprocals summed in order.
func harmonicMean(values []float64) float64 {
	sumInv := 0.0
	for _, v := range values {
		sumInv += 1 / max(v, meanEps)
	}
	return float64(len(values)) / sumInv
}

// Property: HM <= GM <= AM for positive values, and the means of {2, 8} are
// 5, 4 and 3.2, so the oracle's two means are means.
func TestMeanInequalityProperty(t *testing.T) {
	if gm, hm := geometricMean([]float64{2, 8}), harmonicMean([]float64{2, 8}); math.Abs(gm-4) > 1e-9 || math.Abs(hm-3.2) > 1e-9 {
		t.Errorf("means of {2, 8}: geometric %v, harmonic %v; want 4 and 3.2", gm, hm)
	}
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			v = math.Abs(v)
			if v > 1e-6 && v < 1e9 && !math.IsNaN(v) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		am, _ := stats.Mean(vals)
		gm, hm := geometricMean(vals), harmonicMean(vals)
		return hm <= gm*(1+1e-9) && gm <= am*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// refProfile is a term's profile the literal way: the impacts copied out as
// float64s, the arithmetic mean and variance from the stats package, the
// other two means from geometricMean and harmonicMean, a pass per count,
// and the execution-derived features from refSearchSingle.
func refProfile(e *Engine, pl *index.PostingList) termProfile {
	imps := make([]float64, pl.Len())
	for i, p := range pl.Postings {
		imps[i] = float64(p.Impact)
	}
	am, _ := stats.Mean(imps)
	gm, hm := geometricMean(imps), harmonicMean(imps)
	vr, _ := stats.Variance(imps)
	max := float64(pl.MaxImpact)

	nLocalMax, nLocalMaxAboveAM := 0, 0
	for i := 1; i < len(imps)-1; i++ {
		if imps[i] > imps[i-1] && imps[i] > imps[i+1] {
			nLocalMax++
			if imps[i] > am {
				nLocalMaxAboveAM++
			}
		}
	}
	nMax, in5Max := 0, 0
	for _, v := range imps {
		if v >= max {
			nMax++
		}
		if v >= 0.95*max {
			in5Max++
		}
	}
	ex := refSearchSingle(e, pl)
	kth := 0.0
	if len(ex.Results) > 0 {
		kth = float64(ex.Results[len(ex.Results)-1].Score)
	}
	in5Kth := 0
	for _, v := range imps {
		if v >= 0.95*kth {
			in5Kth++
		}
	}

	var p termProfile
	p[FeatPostingListLength] = float64(pl.Len())
	p[FeatIDF] = pl.IDF
	p[FeatMaxScore] = max
	p[FeatAMean] = am
	p[FeatGMean] = gm
	p[FeatHMean] = hm
	p[FeatVariance] = vr
	p[FeatEstimatedMaxScore] = pl.IDF * (index.BM25K1 + 1)
	p[FeatNumLocalMaxima] = float64(nLocalMax)
	p[FeatLocalMaximaAboveAMean] = float64(nLocalMaxAboveAM)
	p[FeatNumMaxScore] = float64(nMax)
	p[FeatDocsIn5PctOfMaxScore] = float64(in5Max)
	p[FeatDocsIn5PctOfKthScore] = float64(in5Kth)
	p[FeatDocsEverInTopK] = float64(ex.Stats.DocsEverInTopK)
	return p
}

// sameProfile reports whether two profiles hold the same bits.
func sameProfile(a, b *termProfile) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func refProbe(pl *index.PostingList, doc int32) (float32, int, bool) {
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

// equivalenceKs straddles the kernels' stack-array bound (stackK).
var equivalenceKs = []int{1, 3, 10, 40}

// randomQuery draws 1..maxTerms terms from rng: two in three from the popular
// head, where lists are long and repeats within one query are common, the
// rest from the whole vocabulary plus a margin of IDs no index knows.
func randomQuery(rng *rand.Rand, vocab, maxTerms int) corpus.Query {
	terms := make([]corpus.TermID, 1+rng.Intn(maxTerms))
	for i := range terms {
		if rng.Intn(3) < 2 {
			terms[i] = corpus.TermID(rng.Intn(min(vocab, 24)))
		} else {
			terms[i] = corpus.TermID(rng.Intn(vocab + vocab/10))
		}
	}
	return corpus.Query{Terms: terms}
}

func checkAgainstReference(t *testing.T, e *Engine, q corpus.Query) {
	t.Helper()
	got, want := e.Search(q), refSearch(e, q)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("K=%d terms %v:\n got  %+v\n want %+v", e.k, q.Terms, got, want)
	}
}

// shapeQueries are the query shapes searchMaxScore's host loop has states
// for, over ix's lists: each of the 20 longest lists paired with each of the
// 20 shortest, where bounded runs cross the long list between the short one's
// documents, and 200 three-term queries over two lists with a rank table and
// one without, where the tail loop, rank-table probes and the gallop meet in
// one query. A sparse list's bound is nearly always above every dense one's,
// so the triples draw the sparse list from the 20 lowest bounds and one dense
// list from the 20 highest: ordered by bound, the sparse list often sits
// below that dense one, turns non-essential before it and is galloped.
func shapeQueries(ix *index.Index, rng *rand.Rand) []corpus.Query {
	var all, dense, sparse []*index.PostingList
	for term := range ix.VocabSize() {
		if pl, err := ix.List(corpus.TermID(term)); err == nil {
			all = append(all, pl)
		}
	}
	slices.SortStableFunc(all, func(a, b *index.PostingList) int { return a.Len() - b.Len() })
	for _, pl := range all {
		if pl.Ranks != nil {
			dense = append(dense, pl)
		} else {
			sparse = append(sparse, pl)
		}
	}
	slices.SortStableFunc(dense, byMaxImpact)
	slices.SortStableFunc(sparse, byMaxImpact)
	top, low := dense[max(0, len(dense)-20):], sparse[:min(len(sparse), 20)]
	var qs []corpus.Query
	for _, long := range all[len(all)-20:] {
		for _, short := range all[:20] {
			qs = append(qs, corpus.Query{Terms: []corpus.TermID{long.Term, short.Term}})
		}
	}
	for range 200 {
		qs = append(qs, corpus.Query{Terms: []corpus.TermID{
			dense[rng.Intn(len(dense))].Term, top[rng.Intn(len(top))].Term, low[rng.Intn(len(low))].Term,
		}})
	}
	return qs
}

// TestKernelsMatchReference holds the contract on both corpus sizes: the
// generator's own batches (what every experiment and the ledger run), random
// queries of 1–12 terms with repeats and unknown IDs (past the stack-array
// term bound, within sort.Slice's insertion-sort range) and a few of up to 20
// (past it: slices.SortFunc must permute equal upper bounds as sort.Slice
// did), at every K in equivalenceKs; on DefaultSpec, shapeQueries too.
func TestKernelsMatchReference(t *testing.T) {
	specs := map[string]corpus.Spec{"small": corpus.SmallSpec()}
	if !testing.Short() {
		specs["default"] = corpus.DefaultSpec()
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			c := corpus.Generate(spec)
			ix := index.Build(c)
			batch := corpus.NewQueryGen(c, 11).Batch(400)
			rng := rand.New(rand.NewSource(12))
			var shapes []corpus.Query
			if name == "default" {
				shapes = shapeQueries(ix, rand.New(rand.NewSource(13)))
			}
			for _, k := range equivalenceKs {
				e := NewEngine(ix, k)
				for _, q := range batch {
					checkAgainstReference(t, e, q)
				}
				for _, q := range shapes {
					checkAgainstReference(t, e, q)
				}
				for i := 0; i < 300; i++ {
					checkAgainstReference(t, e, randomQuery(rng, spec.VocabSize, 12))
				}
				for i := 0; i < 40; i++ {
					checkAgainstReference(t, e, randomQuery(rng, spec.VocabSize, 20))
				}
			}
		})
	}
}

// TestSearchScratchStaysOnStack pins what the stack arrays buy: a query
// within stackTerms and stackK allocates its returned top-K and nothing else.
func TestSearchScratchStaysOnStack(t *testing.T) {
	c, e := setup(t)
	for _, text := range []string{"united", "united kingdom", "united kingdom canada"} {
		q, _ := corpus.ParseQuery(c, text)
		if n := testing.AllocsPerRun(50, func() { e.Search(q) }); n != 1 {
			t.Errorf("%q: %v allocations per search, want 1 (the results)", text, n)
		}
	}
}

// equivalenceEnvs holds FuzzSearchEquivalence's engines over the small
// corpus ([0]) and the DefaultSpec one ([1]), each built on first use.
var equivalenceEnvs [2]struct {
	once    sync.Once
	vocab   int
	engines []*Engine
}

// FuzzSearchEquivalence is TestKernelsMatchReference with the fuzzer choosing
// the query: seed draws the terms, maxTerms bounds their number (1–20), k
// picks the result-set size from equivalenceKs and full picks the DefaultSpec
// corpus over the small one, whose head lists run to hundreds of blocks and
// whose probe trees are 15 levels deep.
func FuzzSearchEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(2), false)
	f.Add(int64(2), uint8(3), uint8(0), false)
	f.Add(int64(3), uint8(12), uint8(1), false)
	f.Add(int64(4), uint8(20), uint8(3), false)
	f.Add(int64(-5), uint8(9), uint8(2), false)
	f.Add(int64(6), uint8(1), uint8(2), true)
	f.Add(int64(7), uint8(3), uint8(0), true)
	f.Add(int64(8), uint8(12), uint8(3), true)

	f.Fuzz(func(t *testing.T, seed int64, maxTerms, k uint8, full bool) {
		env, spec := &equivalenceEnvs[0], corpus.SmallSpec()
		if full {
			if testing.Short() {
				t.Skip("the DefaultSpec corpus takes a second to build")
			}
			env, spec = &equivalenceEnvs[1], corpus.DefaultSpec()
		}
		env.once.Do(func() {
			spec.Seed = 7
			ix := index.Build(corpus.Generate(spec))
			env.vocab = spec.VocabSize
			for _, k := range equivalenceKs {
				env.engines = append(env.engines, NewEngine(ix, k))
			}
		})
		e := env.engines[int(k)%len(env.engines)]
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 8; i++ {
			checkAgainstReference(t, e, randomQuery(rng, env.vocab, 1+int(maxTerms)%20))
		}
	})
}
