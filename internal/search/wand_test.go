package search

import (
	"math"
	"testing"

	"gemini/internal/corpus"
	"gemini/internal/index"
)

func TestAlgorithmString(t *testing.T) {
	if AlgMaxScore.String() != "maxscore" || AlgWAND.String() != "wand" ||
		AlgExhaustive.String() != "exhaustive" || Algorithm(99).String() != "unknown" {
		t.Error("algorithm names wrong")
	}
}

func TestNewEngineWith(t *testing.T) {
	_, e := setup(t)
	w := NewEngineWith(e.Index(), 5, AlgWAND)
	if w.Algorithm() != AlgWAND || w.K() != 5 {
		t.Errorf("engine config lost: %v %d", w.Algorithm(), w.K())
	}
	if NewEngine(e.Index(), 5).Algorithm() != AlgMaxScore {
		t.Error("default algorithm should be MaxScore")
	}
}

// All three algorithms must return identical top-K scores on every query.
func TestAlgorithmsAgree(t *testing.T) {
	c, e := setup(t)
	ix := e.Index()
	engines := map[string]*Engine{
		"maxscore":   NewEngineWith(ix, DefaultK, AlgMaxScore),
		"wand":       NewEngineWith(ix, DefaultK, AlgWAND),
		"exhaustive": NewEngineWith(ix, DefaultK, AlgExhaustive),
	}
	g := corpus.NewQueryGen(c, 77)
	for i := 0; i < 300; i++ {
		q := g.Next()
		ref := engines["exhaustive"].Search(q).Results
		for name, eng := range engines {
			got := eng.Search(q).Results
			if len(got) != len(ref) {
				t.Fatalf("%s on %q: %d results, want %d", name, q.Text, len(got), len(ref))
			}
			for j := range ref {
				if math.Abs(float64(got[j].Score-ref[j].Score)) > 1e-4 {
					t.Fatalf("%s on %q: result %d score %v, want %v",
						name, q.Text, j, got[j].Score, ref[j].Score)
				}
			}
		}
	}
}

// WAND must actually skip postings on multi-term queries.
func TestWANDPrunes(t *testing.T) {
	c, e := setup(t)
	w := NewEngineWith(e.Index(), DefaultK, AlgWAND)
	g := corpus.NewQueryGen(c, 21)
	pruned := false
	for i := 0; i < 200; i++ {
		q := g.Next()
		if q.Len() < 2 {
			continue
		}
		ex := w.Search(q)
		total := 0
		for _, pl := range e.Index().AppendLists(nil, q) {
			total += pl.Len()
		}
		if ex.Stats.PostingsVisited > total {
			t.Fatalf("visited more postings than exist: %d > %d", ex.Stats.PostingsVisited, total)
		}
		if ex.Stats.PostingsVisited < total {
			pruned = true
		}
	}
	if !pruned {
		t.Error("WAND never pruned on 200 multi-term queries")
	}
}

// Exhaustive visits every posting exactly once.
func TestExhaustiveVisitsAll(t *testing.T) {
	c, e := setup(t)
	x := NewEngineWith(e.Index(), DefaultK, AlgExhaustive)
	g := corpus.NewQueryGen(c, 5)
	for i := 0; i < 100; i++ {
		q := g.Next()
		ex := x.Search(q)
		total := 0
		for _, pl := range e.Index().AppendLists(nil, q) {
			total += pl.Len()
		}
		if ex.Stats.PostingsVisited != total {
			t.Fatalf("exhaustive visited %d of %d postings", ex.Stats.PostingsVisited, total)
		}
	}
}

// Pruning must reduce the modeled work on multi-term queries — the paper's
// selective-pruning speedup, visible through the cost model.
func TestPruningReducesWork(t *testing.T) {
	c, e := setup(t)
	m := DefaultCostModel()
	x := NewEngineWith(e.Index(), DefaultK, AlgExhaustive)
	g := corpus.NewQueryGen(c, 41)
	var prunedW, fullW float64
	for i := 0; i < 200; i++ {
		q := g.Next()
		if q.Len() < 2 {
			continue
		}
		prunedW += float64(m.WorkFor(e.Search(q).Stats))
		fullW += float64(m.WorkFor(x.Search(q).Stats))
	}
	if prunedW >= fullW {
		t.Errorf("pruned work %v >= exhaustive %v", prunedW, fullW)
	}
}

func TestGallop(t *testing.T) {
	postings := make([]index.Posting, 100)
	for i := range postings {
		postings[i] = index.Posting{Doc: int32(i * 3)} // 0,3,6,...,297
	}
	lookups := 0
	cases := []struct {
		target int32
		want   int
	}{
		{0, 0}, {1, 1}, {3, 1}, {150, 50}, {297, 99}, {298, 100}, {1000, 100},
	}
	for _, c := range cases {
		if got := gallop(postings, c.target, &lookups); got != c.want {
			t.Errorf("gallop(%d) = %d, want %d", c.target, got, c.want)
		}
	}
	if lookups == 0 {
		t.Error("no lookups counted")
	}
}

func TestWANDSingleEmptyLists(t *testing.T) {
	_, e := setup(t)
	w := NewEngineWith(e.Index(), DefaultK, AlgWAND)
	// Unknown-term query resolves to zero lists.
	ex := w.Search(corpus.Query{Terms: []corpus.TermID{corpus.TermID(1 << 20)}})
	if len(ex.Results) != 0 {
		t.Error("results from empty lists")
	}
}

func BenchmarkSearchWAND(b *testing.B) {
	c, e := benchEngine(b)
	w := NewEngineWith(e.Index(), DefaultK, AlgWAND)
	q, _ := corpus.ParseQuery(c, "united kingdom")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Search(q)
	}
}

func BenchmarkSearchExhaustive(b *testing.B) {
	c, e := benchEngine(b)
	x := NewEngineWith(e.Index(), DefaultK, AlgExhaustive)
	q, _ := corpus.ParseQuery(c, "united kingdom")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Search(q)
	}
}
