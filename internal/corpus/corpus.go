// Package corpus generates the synthetic document collection and query
// workload that stand in for the paper's 65 GB English Wikipedia dump
// (34 M documents) and its query traces.
//
// The substitution (documented in DESIGN.md) preserves the properties Gemini
// actually depends on: Zipf-distributed term document frequencies give
// posting lists spanning several orders of magnitude, which in turn produce
// the paper's Fig. 1c service-time spread (≈14× between light and heavy
// queries); per-term score shapes vary so the Table II features carry
// signal for the neural-network predictors.
package corpus

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// TermID identifies a vocabulary term.
type TermID int32

// Spec configures corpus generation. The zero value is not useful; use
// DefaultSpec or SmallSpec.
type Spec struct {
	NumDocs    int     // documents in the collection
	VocabSize  int     // distinct terms
	ZipfS      float64 // Zipf exponent for term popularity (>1)
	ZipfV      float64 // Zipf offset (>=1)
	MeanDocLen float64 // mean tokens per document (log-normal)
	SigmaLen   float64 // log-normal sigma of document length
	Seed       int64
}

// DefaultSpec is the full-size configuration used by the experiment harness:
// large enough to produce posting lists from a handful of documents up to
// tens of thousands, small enough to index in a couple of seconds.
func DefaultSpec() Spec {
	return Spec{
		NumDocs:    30000,
		VocabSize:  12000,
		ZipfS:      1.25,
		ZipfV:      4,
		MeanDocLen: 180,
		SigmaLen:   0.6,
		Seed:       1,
	}
}

// SmallSpec is a fast configuration for unit tests.
func SmallSpec() Spec {
	return Spec{
		NumDocs:    1200,
		VocabSize:  800,
		ZipfS:      1.25,
		ZipfV:      3,
		MeanDocLen: 80,
		SigmaLen:   0.5,
		Seed:       1,
	}
}

// Corpus is a generated document collection. Docs[d] lists the term
// occurrences of document d (with repetitions — term frequency matters for
// scoring).
type Corpus struct {
	Spec  Spec
	Docs  [][]TermID
	Vocab []string

	// vocabIDs maps each word of Vocab to its first index. TermIDOf builds
	// it on first use, so a Corpus assembled as a literal works too; Vocab
	// must not change after that.
	vocabOnce sync.Once
	vocabIDs  map[string]TermID
}

// exampleTerms gives human-readable names to selected vocabulary slots so
// that examples and the Table II reproduction read like the paper ("toyota",
// "united kingdom", the Fig. 1c queries, ...). The rank assignments mirror
// the paper's examples: "united"/"kingdom" are extremely popular (Table II
// reports a 2.37M posting list), "toyota" is a mid-frequency term (20742
// postings, two orders of magnitude smaller), and the Fig. 1c trio spans the
// popularity range so their service times spread the way the paper's do
// (Canada 14x Tokyo on the same ISN).
var exampleTerms = map[int]string{
	0:   "united",
	1:   "kingdom",
	2:   "canada",
	6:   "wikipedia",
	7:   "search",
	8:   "engine",
	9:   "power",
	10:  "energy",
	11:  "latency",
	12:  "london",
	13:  "paris",
	60:  "toyota",
	150: "bobby",
	600: "tokyo",
}

// Generate builds a corpus from the spec. Generation is deterministic for a
// given spec (including its seed).
func Generate(spec Spec) *Corpus {
	if spec.NumDocs <= 0 || spec.VocabSize <= 0 {
		panic("corpus: spec must set NumDocs and VocabSize")
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	zipf := rand.NewZipf(rng, spec.ZipfS, spec.ZipfV, uint64(spec.VocabSize-1))

	vocab := make([]string, spec.VocabSize)
	for i := range vocab {
		if name, ok := exampleTerms[i]; ok {
			vocab[i] = name
		} else {
			vocab[i] = syntheticWord(i)
		}
	}

	docs := make([][]TermID, spec.NumDocs)
	muLen := math.Log(spec.MeanDocLen) - spec.SigmaLen*spec.SigmaLen/2
	for d := range docs {
		n := int(math.Exp(muLen + spec.SigmaLen*rng.NormFloat64()))
		if n < 8 {
			n = 8
		}
		terms := make([]TermID, n)
		for i := range terms {
			terms[i] = TermID(zipf.Uint64())
		}
		docs[d] = terms
	}
	return &Corpus{Spec: spec, Docs: docs, Vocab: vocab}
}

// syntheticWord derives a deterministic pronounceable pseudo-word for
// vocabulary slot i.
func syntheticWord(i int) string {
	consonants := "bcdfghklmnprstvz"
	vowels := "aeiou"
	var b []byte
	n := i
	for j := 0; j < 3; j++ {
		b = append(b, consonants[n%len(consonants)])
		n /= len(consonants)
		b = append(b, vowels[n%len(vowels)])
		n /= len(vowels)
	}
	return fmt.Sprintf("%s%d", b, i)
}

// TermIDOf returns the TermID of the given word, or -1 if absent: one map
// lookup, on the path of every parsed query. A word that occurs twice in
// Vocab resolves to its first index.
//
//gemini:hotpath
func (c *Corpus) TermIDOf(word string) TermID {
	//gemini:allow hotpath -- builds the map on the first call; one atomic load on every later one
	c.vocabOnce.Do(c.indexVocab)
	if id, ok := c.vocabIDs[word]; ok {
		return id
	}
	return -1
}

func (c *Corpus) indexVocab() {
	c.vocabIDs = make(map[string]TermID, len(c.Vocab))
	for i, w := range c.Vocab {
		if _, dup := c.vocabIDs[w]; !dup {
			c.vocabIDs[w] = TermID(i)
		}
	}
}

// TotalTokens returns the number of token occurrences across all documents.
func (c *Corpus) TotalTokens() int {
	n := 0
	for _, d := range c.Docs {
		n += len(d)
	}
	return n
}
