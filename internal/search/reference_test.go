package search

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"gemini/internal/corpus"
	"gemini/internal/index"
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

// TestKernelsMatchReference holds the contract on both corpus sizes: the
// generator's own batches (what every experiment and the ledger run), random
// queries of 1–12 terms with repeats and unknown IDs (past the stack-array
// term bound, within sort.Slice's insertion-sort range) and a few of up to 20
// (past it: slices.SortFunc must permute equal upper bounds as sort.Slice
// did), at every K in equivalenceKs.
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
			for _, k := range equivalenceKs {
				e := NewEngine(ix, k)
				for _, q := range batch {
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
