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

	"gemini/internal/par"
	"gemini/internal/simd"
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
// given spec (including its seed), and on any number of cores gives the
// documents one rand.Rand seeded with spec.Seed would: each document's
// length from its NormFloat64 and then each of its terms from a
// rand.NewZipf(rng, ZipfS, ZipfV, VocabSize-1) on the same Rand.
func Generate(spec Spec) *Corpus { return generate(spec, par.DefaultWorkers(), 1<<16) }

// generate is Generate with each chunk of the seeded stream's Zipf tries
// split among workers (stream).
func generate(spec Spec, workers, chunk int) *Corpus {
	if spec.NumDocs <= 0 || spec.VocabSize <= 0 {
		panic("corpus: spec must set NumDocs and VocabSize")
	}
	if !(spec.ZipfS > 1) || !(spec.ZipfV >= 1) {
		panic("corpus: spec needs ZipfS > 1 and ZipfV >= 1")
	}
	st := newStream(spec, workers, chunk)
	defer st.close()
	rng := rand.New(st)

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
			terms[i] = st.zipf()
		}
		docs[d] = terms
	}
	return &Corpus{Spec: spec, Docs: docs, Vocab: vocab}
}

// stream is the seeded source's values, drawn a chunk at a time, with the
// Zipf sampler's try on each. rand.Zipf.Uint64 draws one Float64 per try,
// and whether a try ends the draw, and with what term, depends on that
// Float64 alone; so each chunk's tries are computed across the workers, and
// ahead: while a goroutine of its own fills the next chunk, the walk on the
// caller's goroutine reads the current one in order. NormFloat64, through a
// rand.Rand over the stream, takes the values it takes, and each Zipf draw
// skips the tries that do not end it.
type stream struct {
	src        rand.Source
	z          zipf
	workers    int
	cur, ahead *chunk
	filled     chan struct{} // a token when ahead is filled
	pos        int           // the next value of cur to read
}

// chunk is a run of the source's values and, for each, whether its try ends
// the draw and the term it ends it with. A value that rounds to 1 as a
// Float64, which rand.Rand.Float64 draws again, ends none.
type chunk struct {
	vals  []int64
	ends  []bool
	terms []TermID
	xs    []float64 // the tries' hinv, computed a block at a time
}

func newStream(spec Spec, workers, n int) *stream {
	s := &stream{src: rand.NewSource(spec.Seed), z: newZipf(spec.ZipfS, spec.ZipfV, uint64(spec.VocabSize-1)),
		workers: workers, filled: make(chan struct{}, 1)}
	s.cur, s.ahead = newChunk(n), newChunk(n)
	s.fill(s.cur)
	go s.fillNext()
	return s
}

func newChunk(n int) *chunk {
	return &chunk{vals: make([]int64, n), ends: make([]bool, n), terms: make([]TermID, n), xs: make([]float64, n)}
}

func (s *stream) fillNext() {
	s.fill(s.ahead)
	s.filled <- struct{}{}
}

// close waits for the chunk being filled: no goroutine outlives generate.
func (s *stream) close() { <-s.filled }

// fill draws the chunk's values and runs their tries, the exponentials of
// hinv a block at a time (simd.Exp).
func (s *stream) fill(c *chunk) {
	for i := range c.vals {
		c.vals[i] = s.src.Int63()
	}
	const block = 4096
	par.Run(s.workers, (len(c.vals)+block-1)/block, func(b int) {
		lo, hi := b*block, min((b+1)*block, len(c.vals))
		xs := c.xs[lo:hi]
		for i := range xs {
			xs[i] = s.z.oneminusQinv * math.Log(s.z.oneminusQ*s.z.ur(uniform(c.vals[lo+i])))
		}
		simd.Exp(xs)
		for i, x := range xs {
			r := uniform(c.vals[lo+i])
			k, ok := s.z.try(r, x-s.z.v)
			c.terms[lo+i], c.ends[lo+i] = TermID(k), ok && r != 1
		}
	})
}

// next returns the index in cur of the next value, first making the chunk
// ahead current, once it is filled, when cur is spent.
func (s *stream) next() int {
	if s.pos == len(s.cur.vals) {
		<-s.filled
		s.cur, s.ahead, s.pos = s.ahead, s.cur, 0
		go s.fillNext()
	}
	s.pos++
	return s.pos - 1
}

// Int63 implements rand.Source.
func (s *stream) Int63() int64 {
	i := s.next()
	return s.cur.vals[i]
}

// Seed implements rand.Source; a stream is never reseeded.
func (s *stream) Seed(int64) { panic("corpus: a stream cannot be reseeded") }

// zipf is rand.Zipf.Uint64 on the stream: tries until one ends the draw.
func (s *stream) zipf() TermID {
	for {
		if i := s.next(); s.cur.ends[i] {
			return s.cur.terms[i]
		}
	}
}

// uniform is rand.Rand.Float64 of one source value, before its retry.
func uniform(v int64) float64 { return float64(v) / (1 << 63) }

// zipf is the state of rand.Zipf, computed as rand.NewZipf does, with one
// pass of Uint64's rejection loop as try.
type zipf struct {
	imax, v, q, s, oneminusQ, oneminusQinv, hxm, hx0minusHxm float64
}

func newZipf(s, v float64, imax uint64) zipf {
	z := zipf{imax: float64(imax), v: v, q: s}
	z.oneminusQ = 1.0 - z.q
	z.oneminusQinv = 1.0 / z.oneminusQ
	z.hxm = z.h(z.imax + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1.0)))
	return z
}

func (z *zipf) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

// hinv is rand.Zipf's; fill computes it a block of values at a time, its
// exponentials four at a time (simd.Exp).
func (z *zipf) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// ur is Uint64's ur of the uniform r.
func (z *zipf) ur(r float64) float64 { return z.hxm + r*z.hx0minusHxm }

// try is one pass of rand.Zipf.Uint64's loop on the uniform r, given x =
// hinv(ur(r)): the value it computes and whether the loop returns it.
func (z *zipf) try(r, x float64) (uint64, bool) {
	ur := z.ur(r)
	k := math.Floor(x + 0.5)
	if k-x <= z.s {
		return uint64(k), true
	}
	if ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q) {
		return uint64(k), true
	}
	return 0, false
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
func (c *Corpus) TermIDOf(word string) TermID {
	// Builds the map on the first call; one atomic load on every later one.
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
