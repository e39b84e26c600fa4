package corpus

import (
	"testing"
	"testing/quick"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(SmallSpec())
	b := Generate(SmallSpec())
	if len(a.Docs) != len(b.Docs) {
		t.Fatalf("doc counts differ")
	}
	for i := range a.Docs {
		if len(a.Docs[i]) != len(b.Docs[i]) {
			t.Fatalf("doc %d length differs", i)
		}
		for j := range a.Docs[i] {
			if a.Docs[i][j] != b.Docs[i][j] {
				t.Fatalf("doc %d token %d differs", i, j)
			}
		}
	}
}

func TestGenerateShape(t *testing.T) {
	spec := SmallSpec()
	c := Generate(spec)
	if len(c.Docs) != spec.NumDocs {
		t.Fatalf("NumDocs = %d, want %d", len(c.Docs), spec.NumDocs)
	}
	if len(c.Vocab) != spec.VocabSize {
		t.Fatalf("VocabSize = %d, want %d", len(c.Vocab), spec.VocabSize)
	}
	for i, d := range c.Docs {
		if len(d) < 8 {
			t.Fatalf("doc %d too short: %d", i, len(d))
		}
		for _, term := range d {
			if term < 0 || int(term) >= spec.VocabSize {
				t.Fatalf("doc %d has out-of-range term %d", i, term)
			}
		}
	}
	// Mean length should be in the right ballpark of the log-normal target.
	tokens := 0
	for _, d := range c.Docs {
		tokens += len(d)
	}
	mean := float64(tokens) / float64(spec.NumDocs)
	if mean < spec.MeanDocLen*0.6 || mean > spec.MeanDocLen*1.6 {
		t.Errorf("mean doc length %.1f far from target %.1f", mean, spec.MeanDocLen)
	}
}

func TestZipfSkew(t *testing.T) {
	c := Generate(SmallSpec())
	df := make([]int, c.Spec.VocabSize) // document frequency
	for _, d := range c.Docs {
		seen := map[TermID]bool{}
		for _, term := range d {
			if !seen[term] {
				seen[term] = true
				df[term]++
			}
		}
	}
	// The most popular term must appear in far more documents than the
	// median term: this skew is what produces the paper's 14x service-time
	// variation (Fig. 1c).
	maxDF := 0
	nonzero := 0
	for _, f := range df {
		if f > maxDF {
			maxDF = f
		}
		if f > 0 {
			nonzero++
		}
	}
	if maxDF < c.Spec.NumDocs/4 {
		t.Errorf("max document frequency %d too small for %d docs", maxDF, c.Spec.NumDocs)
	}
	if nonzero < c.Spec.VocabSize/10 {
		t.Errorf("only %d terms used; vocabulary coverage too small", nonzero)
	}
}

func TestExampleTermsPresent(t *testing.T) {
	c := Generate(SmallSpec())
	for _, w := range []string{"toyota", "united", "kingdom", "canada", "bobby", "tokyo"} {
		if c.TermIDOf(w) < 0 {
			t.Errorf("example term %q missing from vocabulary", w)
		}
	}
	if c.TermIDOf("notaword") != -1 {
		t.Errorf("unknown word resolved")
	}
}

func TestSyntheticWordsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 5000; i++ {
		w := syntheticWord(i)
		if seen[w] {
			t.Fatalf("duplicate synthetic word %q at %d", w, i)
		}
		seen[w] = true
	}
}

func TestQueryGenDistribution(t *testing.T) {
	c := Generate(SmallSpec())
	g := NewQueryGen(c, 42)
	counts := map[int]int{}
	for i := 0; i < 3000; i++ {
		q := g.Next()
		counts[q.Len()]++
		if q.Len() < 1 || q.Len() > 3 {
			t.Fatalf("query length %d out of range", q.Len())
		}
		seen := map[TermID]bool{}
		for _, term := range q.Terms {
			if seen[term] {
				t.Fatalf("duplicate term in query %v", q)
			}
			seen[term] = true
			if term < 0 || int(term) >= c.Spec.VocabSize {
				t.Fatalf("term out of range: %d", term)
			}
		}
		if q.Text == "" {
			t.Fatalf("empty query text")
		}
	}
	if counts[1] < counts[2] || counts[2] < counts[3] {
		t.Errorf("length distribution not skewed to short queries: %v", counts)
	}
}

func TestQueryGenDeterministic(t *testing.T) {
	c := Generate(SmallSpec())
	a := NewQueryGen(c, 7).Batch(50)
	b := NewQueryGen(c, 7).Batch(50)
	for i := range a {
		if a[i].Text != b[i].Text {
			t.Fatalf("query %d differs: %q vs %q", i, a[i].Text, b[i].Text)
		}
	}
}

func TestBatch(t *testing.T) {
	c := Generate(SmallSpec())
	qs := NewQueryGen(c, 1).Batch(10)
	if len(qs) != 10 {
		t.Fatalf("Batch(10) returned %d", len(qs))
	}
}

func TestParseQuery(t *testing.T) {
	c := Generate(SmallSpec())
	q, ok := ParseQuery(c, "United Kingdom")
	if !ok || q.Len() != 2 {
		t.Fatalf("ParseQuery failed: %v %v", q, ok)
	}
	if c.Vocab[q.Terms[0]] != "united" || c.Vocab[q.Terms[1]] != "kingdom" {
		t.Errorf("wrong terms: %v", q.Terms)
	}
	if _, ok := ParseQuery(c, "zzzz qqqq"); ok {
		t.Errorf("nonsense query parsed")
	}
	q, ok = ParseQuery(c, "toyota zzzz")
	if !ok || q.Len() != 1 {
		t.Errorf("partial parse failed: %v %v", q, ok)
	}
}

// Property: every generated query is well-formed for any seed.
func TestQueryGenProperty(t *testing.T) {
	c := Generate(SmallSpec())
	f := func(seed int64) bool {
		g := NewQueryGen(c, seed)
		for i := 0; i < 20; i++ {
			q := g.Next()
			if q.Len() < 1 || q.Len() > 3 || q.Text == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
