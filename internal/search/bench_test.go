package search

import (
	"math/rand"
	"sync"
	"testing"

	"gemini/internal/corpus"
	"gemini/internal/index"
)

func benchEngine(b *testing.B) (*corpus.Corpus, *Engine) {
	b.Helper()
	if testCorpus == nil {
		testCorpus = corpus.Generate(corpus.SmallSpec())
		testIndex = index.Build(testCorpus)
	}
	return testCorpus, NewEngine(testIndex, DefaultK)
}

func BenchmarkSearchSingleTerm(b *testing.B) {
	c, e := benchEngine(b)
	q, _ := corpus.ParseQuery(c, "united")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Search(q)
	}
}

func BenchmarkSearchPhraseMaxScore(b *testing.B) {
	c, e := benchEngine(b)
	q, _ := corpus.ParseQuery(c, "united kingdom")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Search(q)
	}
}

func BenchmarkSearchMixedQueries(b *testing.B) {
	c, e := benchEngine(b)
	qs := corpus.NewQueryGen(c, 1).Batch(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Search(qs[i%len(qs)])
	}
}

var poolFixture struct {
	once    sync.Once
	engine  *Engine
	queries []corpus.Query
}

// BenchmarkSearchPool is the ledger's search layer without a platform build:
// the full-size corpus and the 5 000-query generator pool that query_path and
// live_search cycle over (bench/query.go), one Search per iteration.
func BenchmarkSearchPool(b *testing.B) {
	f := &poolFixture
	f.once.Do(func() { // once per process, not once per b.N the runner tries
		c := corpus.Generate(corpus.DefaultSpec())
		f.engine = NewEngine(index.Build(c), DefaultK)
		f.queries = corpus.NewQueryGen(c, 1).Batch(5000)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.engine.Search(f.queries[i%len(f.queries)])
	}
}

func BenchmarkFeatureExtraction(b *testing.B) {
	c, e := benchEngine(b)
	x := NewExtractor(e)
	qs := corpus.NewQueryGen(c, 2).Batch(256)
	// Warm the per-term cache first: the steady-state cost is what the ISN
	// pays per request.
	for _, q := range qs {
		x.Features(q)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Features(qs[i%len(qs)])
	}
}

func BenchmarkMeasuredWork(b *testing.B) {
	c, e := benchEngine(b)
	x := NewExtractor(e)
	j := DefaultJitter()
	q, _ := corpus.ParseQuery(c, "canada")
	fv := x.Features(q)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.MeasuredWork(10, fv, rng)
	}
}
