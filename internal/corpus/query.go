package corpus

import (
	"math/rand"
	"strings"
	"unicode/utf8"
)

// Query is a search request: one term ("term query") or several ("phrase
// query" in the paper's Table II terminology — scored disjunctively as the
// paper's engine does for feature extraction).
type Query struct {
	Terms []TermID
	Text  string
}

// Len returns the number of terms (the Table II "Query Length" feature).
func (q Query) Len() int { return len(q.Terms) }

// QueryGen samples queries against a corpus. Real query logs skew toward
// popular terms, so terms are drawn from a (separately parameterized) Zipf
// distribution over popularity ranks; query length is 1–3 terms with the
// bulk being single-term queries.
type QueryGen struct {
	corpus *Corpus
	rng    *rand.Rand
	zipf   *rand.Zipf
}

// NewQueryGen creates a deterministic query generator.
func NewQueryGen(c *Corpus, seed int64) *QueryGen {
	rng := rand.New(rand.NewSource(seed))
	// Slightly flatter than the corpus distribution so medium-frequency
	// terms (the interesting, variable ones) appear regularly.
	zipf := rand.NewZipf(rng, 1.12, 6, uint64(c.Spec.VocabSize-1))
	return &QueryGen{corpus: c, rng: rng, zipf: zipf}
}

// Next samples the next query.
func (g *QueryGen) Next() Query {
	n := 1
	switch p := g.rng.Float64(); {
	case p < 0.60:
		n = 1
	case p < 0.90:
		n = 2
	default:
		n = 3
	}
	terms := make([]TermID, 0, n)
	seen := map[TermID]bool{}
	for len(terms) < n {
		t := TermID(g.zipf.Uint64())
		if !seen[t] {
			seen[t] = true
			terms = append(terms, t)
		}
	}
	words := make([]string, len(terms))
	for i, t := range terms {
		words[i] = g.corpus.Vocab[t]
	}
	return Query{Terms: terms, Text: strings.Join(words, " ")}
}

// Batch samples n queries.
func (g *QueryGen) Batch(n int) []Query {
	out := make([]Query, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// ParseQuery builds a Query from whitespace-separated words, dropping words
// not in the vocabulary. It returns false if no word resolved.
//
// Matching is case-insensitive and splits on Unicode white space. Text that
// is already lower-case ASCII, which is what the generator and the load
// tools send, is split where it lies: no lowered copy, no word slice, one
// allocation for the terms. Anything else takes parseFolded.
//
//gemini:hotpath
func ParseQuery(c *Corpus, text string) (Query, bool) {
	// One pass to see that the text is plain and to count its words, so the
	// terms are allocated once at their upper bound.
	words, inWord := 0, false
	for i := 0; i < len(text); i++ {
		b := text[i]
		if b >= utf8.RuneSelf || 'A' <= b && b <= 'Z' {
			//gemini:allow hotpath -- upper case or non-ASCII: the copying route, which defines the result
			return parseFolded(c, text)
		}
		if asciiSpace(b) {
			inWord = false
		} else if !inWord {
			inWord = true
			words++
		}
	}
	var terms []TermID
	for i := 0; i < len(text); {
		if asciiSpace(text[i]) {
			i++
			continue
		}
		start := i
		for i < len(text) && !asciiSpace(text[i]) {
			i++
		}
		if id := c.TermIDOf(text[start:i]); id >= 0 {
			if terms == nil {
				//gemini:allow hotpath -- the query's terms: its one allocation, made when the first word resolves
				terms = make([]TermID, 0, words)
			}
			terms = append(terms, id)
		}
	}
	if len(terms) == 0 {
		return Query{}, false
	}
	return Query{Terms: terms, Text: text}, true
}

// asciiSpace reports whether b is one of the six ASCII bytes strings.Fields
// splits on.
//
//gemini:hotpath
func asciiSpace(b byte) bool {
	return b == ' ' || '\t' <= b && b <= '\r'
}

// parseFolded is ParseQuery by way of the standard library: lower-case the
// text, split it into fields, look each one up.
func parseFolded(c *Corpus, text string) (Query, bool) {
	var terms []TermID
	for _, w := range strings.Fields(strings.ToLower(text)) {
		if id := c.TermIDOf(w); id >= 0 {
			terms = append(terms, id)
		}
	}
	if len(terms) == 0 {
		return Query{}, false
	}
	return Query{Terms: terms, Text: text}, true
}
