package search

import (
	"math"
	"testing"

	"gemini/internal/corpus"
)

func TestAlgorithmString(t *testing.T) {
	if AlgMaxScore.String() != "maxscore" || AlgExhaustive.String() != "exhaustive" || Algorithm(99).String() != "unknown" {
		t.Error("algorithm names wrong")
	}
}

func TestNewEngineWith(t *testing.T) {
	_, e := setup(t)
	w := NewEngineWith(e.Index(), 5, AlgExhaustive)
	if w.Algorithm() != AlgExhaustive || w.K() != 5 {
		t.Errorf("engine config lost: %v %d", w.Algorithm(), w.K())
	}
	if NewEngine(e.Index(), 5).Algorithm() != AlgMaxScore {
		t.Error("default algorithm should be MaxScore")
	}
}

// Both algorithms must return identical top-K scores on every query.
func TestAlgorithmsAgree(t *testing.T) {
	c, e := setup(t)
	ix := e.Index()
	engines := map[string]*Engine{
		"maxscore":   NewEngineWith(ix, DefaultK, AlgMaxScore),
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

func BenchmarkSearchExhaustive(b *testing.B) {
	c, e := benchEngine(b)
	x := NewEngineWith(e.Index(), DefaultK, AlgExhaustive)
	q, _ := corpus.ParseQuery(c, "united kingdom")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Search(q)
	}
}
