package search

import (
	"math"
	"sync"
	"testing"

	"gemini/internal/corpus"
	"gemini/internal/index"
)

var fuzzEnv struct {
	once sync.Once
	c    *corpus.Corpus
	eng  *Engine
	x    *Extractor
}

func fuzzEngine() (*corpus.Corpus, *Engine, *Extractor) {
	fuzzEnv.once.Do(func() {
		spec := corpus.SmallSpec()
		spec.Seed = 7
		fuzzEnv.c = corpus.Generate(spec)
		fuzzEnv.eng = NewEngine(index.Build(fuzzEnv.c), DefaultK)
		fuzzEnv.x = NewExtractor(fuzzEnv.eng)
	})
	return fuzzEnv.c, fuzzEnv.eng, fuzzEnv.x
}

// FuzzFeatureVector feeds arbitrary query text through ParseQuery and the
// Table II feature extractor and checks the properties the predictors rely
// on: extraction never panics, every feature is finite and non-negative,
// Query_Length matches the parsed term count, a second extraction is
// identical to the first, the profile of each term the extractor built up
// front holds refProfile's bits (the statistics over the list the literal
// way, and the reference single-term scan), and the vector is the
// per-feature maximum of those reference profiles.
func FuzzFeatureVector(f *testing.F) {
	f.Add("canada")
	f.Add("united kingdom")
	f.Add("UNITED   kingdom\tcanada")
	f.Add("no-such-word at all")
	f.Add("")
	f.Add("a b c d e f g h i j k l m n o p q r s t u v w x y z")

	f.Fuzz(func(t *testing.T, text string) {
		c, eng, x := fuzzEngine()

		q, ok := corpus.ParseQuery(c, text)
		if !ok {
			return // nothing resolved against the vocabulary
		}
		if len(q.Terms) == 0 {
			t.Fatal("ParseQuery returned ok with no terms")
		}

		fv := x.Features(q)
		for i, v := range fv {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("feature %s = %v", FeatureNames[i], v)
			}
			if v < 0 {
				t.Fatalf("feature %s = %v, want >= 0", FeatureNames[i], v)
			}
		}
		if got := fv[FeatQueryLength]; got != float64(len(q.Terms)) {
			t.Fatalf("Query_Length = %v, terms = %d", got, len(q.Terms))
		}

		if again := x.Features(q); again != fv {
			t.Fatalf("second extraction diverged:\n%v\n%v", fv, again)
		}
		var want FeatureVector
		for _, term := range q.Terms {
			pl, err := eng.Index().List(term)
			if err != nil {
				continue
			}
			ref := refProfile(eng, pl)
			if !sameProfile(&x.profiles[term], &ref) {
				t.Fatalf("term %d profile:\n%v\nreference\n%v", term, x.profiles[term], ref)
			}
			for i, v := range ref {
				want[i] = math.Max(want[i], v)
			}
		}
		want[FeatQueryLength] = float64(len(q.Terms))
		if fv != want {
			t.Fatalf("features diverged from the reference profiles' maximum:\n%v\n%v", fv, want)
		}
	})
}
