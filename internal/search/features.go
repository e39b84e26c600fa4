package search

import (
	"gemini/internal/corpus"
	"gemini/internal/index"
	"gemini/internal/par"
	"gemini/internal/stats"
)

// Feature indices of the Table II feature vector. The order matches the
// bottom-to-top feature-addition order of the paper's Fig. 6 sweep, with the
// query-level "Query Length" appended last.
const (
	FeatPostingListLength = iota
	FeatIDF
	FeatMaxScore
	FeatAMean
	FeatGMean
	FeatHMean
	FeatVariance
	FeatEstimatedMaxScore
	FeatNumLocalMaxima
	FeatLocalMaximaAboveAMean
	FeatNumMaxScore
	FeatDocsIn5PctOfMaxScore
	FeatDocsIn5PctOfKthScore
	FeatDocsEverInTopK
	FeatQueryLength
	NumFeatures
)

// FeatureNames gives the printable name of each feature slot.
var FeatureNames = [NumFeatures]string{
	"Posting_List_Length",
	"IDF",
	"MaxScore",
	"AMean",
	"GMean",
	"HMean",
	"Variance",
	"Estimated_MaxScore",
	"#_of_Local_Maxima",
	"Local_Maxima_above_AMean",
	"#_of_MaxScore",
	"Docs_in_5%_of_MaxScore",
	"Docs_in_5%_of_KthScore",
	"Docs_ever_in_TopK",
	"Query_Length",
}

// FeatureVector holds the Table II features of one query.
type FeatureVector [NumFeatures]float64

// termProfile caches the per-term feature values. Static list statistics
// are computed from the posting list; the execution-derived features
// (Docs_in_5%_of_KthScore, Docs_ever_in_TopK) come from profiling a
// single-term top-K run, mirroring how a production predictor would learn
// them from past executions of the term.
type termProfile struct {
	feats [NumFeatures - 1]float64 // all but Query_Length
}

// Extractor computes Table II feature vectors, caching per-term profiles.
// It is not safe for concurrent use.
type Extractor struct {
	engine *Engine
	cache  map[corpus.TermID]*termProfile
}

// NewExtractor creates an extractor over the engine's index, using the
// engine's K for the Kth-score features.
func NewExtractor(e *Engine) *Extractor {
	return &Extractor{engine: e, cache: make(map[corpus.TermID]*termProfile)}
}

// Features returns the feature vector of a query. For phrase queries (more
// than one term), each per-term feature takes the maximum across the query's
// terms, as in the paper. Unknown terms contribute nothing; a query with no
// known terms yields the zero vector.
func (x *Extractor) Features(q corpus.Query) FeatureVector {
	var fv FeatureVector
	for _, t := range q.Terms {
		p := x.profile(t)
		if p == nil {
			continue
		}
		for i := 0; i < NumFeatures-1; i++ {
			if p.feats[i] > fv[i] {
				fv[i] = p.feats[i]
			}
		}
	}
	fv[FeatQueryLength] = float64(len(q.Terms))
	return fv
}

// Prepare caches the profile of every term of queries that has none yet,
// building them on workers goroutines (par.Run): Features then only reads
// the cache for these queries. A profile is a function of its term's posting
// list alone, so the cache ends as Features would have filled it.
func (x *Extractor) Prepare(queries []corpus.Query, workers int) {
	var todo []corpus.TermID
	for _, q := range queries {
		for _, t := range q.Terms {
			if _, ok := x.cache[t]; !ok {
				x.cache[t] = nil // claimed: listed once
				todo = append(todo, t)
			}
		}
	}
	built := make([]*termProfile, len(todo))
	par.Run(workers, len(todo), func(i int) {
		if pl, err := x.engine.Index().List(todo[i]); err == nil {
			built[i] = x.buildProfile(pl)
		}
	})
	for i, t := range todo {
		x.cache[t] = built[i]
	}
}

func (x *Extractor) profile(t corpus.TermID) *termProfile {
	if p, ok := x.cache[t]; ok {
		return p
	}
	pl, err := x.engine.Index().List(t)
	if err != nil {
		x.cache[t] = nil
		return nil
	}
	p := x.buildProfile(pl)
	x.cache[t] = p
	return p
}

func (x *Extractor) buildProfile(pl *index.PostingList) *termProfile {
	imps := make([]float64, pl.Len())
	for i, pst := range pl.Postings {
		imps[i] = float64(pst.Impact)
	}
	am, _ := stats.Mean(imps)
	gm, _ := stats.GeometricMean(imps)
	hm, _ := stats.HarmonicMean(imps)
	vr, _ := stats.Variance(imps)
	max := float64(pl.MaxImpact)

	// Local maxima of the impact sequence in document order (interior
	// points strictly greater than both neighbors).
	nLocalMax, nLocalMaxAboveAM := 0, 0
	for i := 1; i < len(imps)-1; i++ {
		if imps[i] > imps[i-1] && imps[i] > imps[i+1] {
			nLocalMax++
			if imps[i] > am {
				nLocalMaxAboveAM++
			}
		}
	}

	nMax, in5Max := 0, 0
	for _, v := range imps {
		if v >= max { // nothing exceeds max, so this counts exact hits
			nMax++
		}
		if v >= 0.95*max {
			in5Max++
		}
	}

	// Execution-derived features from a profiling run of the single term.
	ex := x.engine.searchSingle(pl)
	kth := 0.0
	if len(ex.Results) > 0 {
		kth = float64(ex.Results[len(ex.Results)-1].Score)
	}
	in5Kth := 0
	for _, v := range imps {
		if v >= 0.95*kth {
			in5Kth++
		}
	}

	// Estimated max score: the analytic BM25 upper bound IDF·(k1+1)
	// (paper ref [43] uses a precomputed approximation; the analytic bound
	// plays the same role — cheap, never below the true max, and loose).
	estMax := pl.IDF * (index.BM25K1 + 1)

	p := &termProfile{}
	p.feats[FeatPostingListLength] = float64(pl.Len())
	p.feats[FeatIDF] = pl.IDF
	p.feats[FeatMaxScore] = max
	p.feats[FeatAMean] = am
	p.feats[FeatGMean] = gm
	p.feats[FeatHMean] = hm
	p.feats[FeatVariance] = vr
	p.feats[FeatEstimatedMaxScore] = estMax
	p.feats[FeatNumLocalMaxima] = float64(nLocalMax)
	p.feats[FeatLocalMaximaAboveAMean] = float64(nLocalMaxAboveAM)
	p.feats[FeatNumMaxScore] = float64(nMax)
	p.feats[FeatDocsIn5PctOfMaxScore] = float64(in5Max)
	p.feats[FeatDocsIn5PctOfKthScore] = float64(in5Kth)
	p.feats[FeatDocsEverInTopK] = float64(ex.Stats.DocsEverInTopK)
	return p
}
