package search

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"gemini/internal/corpus"
	"gemini/internal/index"
)

// tableSpecs are the corpora the per-term tables are checked on: the small
// one always, the DefaultSpec one (12 000 terms, head lists of hundreds of
// blocks) outside -short.
func tableSpecs() map[string]corpus.Spec {
	specs := map[string]corpus.Spec{"SmallSpec": corpus.SmallSpec()}
	if !testing.Short() {
		specs["DefaultSpec"] = corpus.DefaultSpec()
	}
	return specs
}

// atGOMAXPROCS runs f with GOMAXPROCS set to n and restores it after.
func atGOMAXPROCS[T any](n int, f func() T) T {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	return f()
}

// TestOneTermTable holds the engine's one-term table to the reference scan:
// every term's entry, at every K in equivalenceKs, is reflect.DeepEqual to
// refSearch of a query of that term alone, and so is what Search returns
// for it; a term the index has no list for, inside the vocabulary or past
// it, gives the zero Execution. The table built at GOMAXPROCS 1 equals the
// one built at 3, and a caller that writes to the Results Search returned
// does not change the next answer.
func TestOneTermTable(t *testing.T) {
	for name, spec := range tableSpecs() {
		t.Run(name, func(t *testing.T) {
			ix := index.Build(corpus.Generate(spec))
			for _, k := range equivalenceKs {
				e := NewEngine(ix, k)
				if len(e.one) != ix.VocabSize() {
					t.Fatalf("K=%d: %d table entries for %d terms", k, len(e.one), ix.VocabSize())
				}
				for term := range ix.VocabSize() + 3 {
					q := corpus.Query{Terms: []corpus.TermID{corpus.TermID(term)}}
					want := refSearch(e, q)
					if term < len(e.one) && !reflect.DeepEqual(e.one[term], want) {
						t.Fatalf("K=%d term %d: entry\n %+v\nwant\n %+v", k, term, e.one[term], want)
					}
					if got := e.Search(q); !reflect.DeepEqual(got, want) {
						t.Fatalf("K=%d term %d: Search\n %+v\nwant\n %+v", k, term, got, want)
					}
					if _, err := ix.List(q.Terms[0]); err != nil && !reflect.DeepEqual(want, Execution{}) {
						t.Fatalf("K=%d term %d has no list, reference gives %+v", k, term, want)
					}
				}
			}

			serial := atGOMAXPROCS(1, func() *Engine { return NewEngine(ix, DefaultK) })
			parallel := atGOMAXPROCS(3, func() *Engine { return NewEngine(ix, DefaultK) })
			if !reflect.DeepEqual(serial.one, parallel.one) {
				t.Fatal("one-term table at GOMAXPROCS 3 differs from GOMAXPROCS 1")
			}

			var head corpus.TermID // a term with K results to write over
			for len(serial.one[head].Results) < DefaultK {
				head++
			}
			q := corpus.Query{Terms: []corpus.TermID{head}}
			first := serial.Search(q)
			want := Execution{Results: append([]Result(nil), first.Results...), Stats: first.Stats}
			for i := range first.Results {
				first.Results[i] = Result{Doc: -1, Score: -1}
			}
			if again := serial.Search(q); !reflect.DeepEqual(again, want) {
				t.Fatalf("term %d after writing to an earlier answer:\n %+v\nwant\n %+v", head, again, want)
			}
		})
	}
}

// TestProfilesMatchReference holds every term's profile to refProfile, bit
// for bit, on an engine with the one-term table and on an exhaustive one
// (whose extractor builds the table itself); it also builds the profiles at
// GOMAXPROCS 1 and 3 and wants the same bits.
func TestProfilesMatchReference(t *testing.T) {
	for name, spec := range tableSpecs() {
		t.Run(name, func(t *testing.T) {
			ix := index.Build(corpus.Generate(spec))
			e := NewEngine(ix, DefaultK)
			serial := atGOMAXPROCS(1, func() *Extractor { return NewExtractor(e) })
			parallel := atGOMAXPROCS(3, func() *Extractor { return NewExtractor(e) })
			exhaustive := NewExtractor(NewEngineWith(ix, DefaultK, AlgExhaustive))
			for term := range ix.VocabSize() {
				var want termProfile
				if pl, err := ix.List(corpus.TermID(term)); err == nil {
					want = refProfile(e, pl)
				}
				for _, x := range []struct {
					name string
					x    *Extractor
				}{{"GOMAXPROCS 1", serial}, {"GOMAXPROCS 3", parallel}, {"exhaustive engine", exhaustive}} {
					if !sameProfile(&x.x.profiles[term], &want) {
						t.Fatalf("%s, term %d:\n %v\nwant\n %v", x.name, term, x.x.profiles[term], want)
					}
				}
			}
		})
	}
}

// TestFeaturesConcurrent runs Features and Search over the pool from four
// goroutines on one engine and one extractor: every answer must equal the
// serial run's (and, under -race, nothing may race).
func TestFeaturesConcurrent(t *testing.T) {
	c, e := setup(t)
	x := NewExtractor(e)
	pool := corpus.NewQueryGen(c, 31).Batch(600)
	wantFV := make([]FeatureVector, len(pool))
	wantEx := make([]Execution, len(pool))
	for i, q := range pool {
		wantFV[i], wantEx[i] = x.Features(q), e.Search(q)
	}
	var wg sync.WaitGroup
	errs := make([]string, 4)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range pool {
				i := (j + g*len(pool)/len(errs)) % len(pool) // each goroutine starts elsewhere
				if fv := x.Features(pool[i]); fv != wantFV[i] {
					errs[g] = "Features of " + pool[i].Text
					return
				}
				if ex := e.Search(pool[i]); !reflect.DeepEqual(ex, wantEx[i]) {
					errs[g] = "Search of " + pool[i].Text
					return
				}
			}
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != "" {
			t.Errorf("goroutine %d: %s differs from the serial run", g, err)
		}
	}
}
