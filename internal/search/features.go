package search

import (
	"math"

	"gemini/internal/corpus"
	"gemini/internal/index"
	"gemini/internal/par"
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

// termProfile holds one term's feature values, all but Query_Length. Static
// list statistics are computed from the posting list; the execution-derived
// features (Docs_in_5%_of_KthScore, Docs_ever_in_TopK) come from the term's
// entry in the engine's one-term table, its single-term top-K run,
// mirroring how a production predictor would learn them from past
// executions of the term.
type termProfile [NumFeatures - 1]float64

// Extractor computes Table II feature vectors from the profile of every term
// of the index, built when the extractor is created. It only reads after
// that, so it is safe for concurrent use.
type Extractor struct {
	profiles []termProfile // indexed by TermID; zero where the index has no list
}

// NewExtractor builds the profile of every term of the engine's index, on
// every core (par.Run, each term into its own slot), using the engine's K
// for the Kth-score features.
func NewExtractor(e *Engine) *Extractor {
	one := e.one
	if one == nil {
		one = oneTermTable(e.ix, e.k) // an exhaustive engine keeps no table
	}
	profiles := make([]termProfile, len(one))
	par.Run(par.DefaultWorkers(), len(profiles), func(t int) {
		if pl, err := e.ix.List(corpus.TermID(t)); err == nil {
			profiles[t] = buildProfile(pl, one[t])
		}
	})
	return &Extractor{profiles: profiles}
}

// Features returns the feature vector of a query. For phrase queries (more
// than one term), each per-term feature takes the maximum across the query's
// terms, as in the paper. Unknown terms contribute nothing (their profile is
// zero, and no feature is negative); a query with no known terms yields the
// zero vector.
func (x *Extractor) Features(q corpus.Query) FeatureVector {
	var fv FeatureVector
	for _, t := range q.Terms {
		if uint(t) >= uint(len(x.profiles)) {
			continue
		}
		for i, v := range &x.profiles[t] {
			if v > fv[i] {
				fv[i] = v
			}
		}
	}
	fv[FeatQueryLength] = float64(len(q.Terms))
	return fv
}

// buildProfile computes the profile of pl from its postings and ex, the
// list's single-term execution. Each statistic sums in posting order, as
// refProfile's means and variance (reference_test.go) do over the impacts, so
// each has their bits: the first pass takes the sums behind the three means
// and the counts; the second, which needs the arithmetic mean, the variance
// and the local maxima.
func buildProfile(pl *index.PostingList, ex Execution) termProfile {
	const eps = 1e-12 // the floor the geometric and harmonic means clamp an impact to
	ps := pl.Postings
	n := float64(len(ps))
	max := float64(pl.MaxImpact)
	kth := 0.0
	if len(ex.Results) > 0 {
		kth = float64(ex.Results[len(ex.Results)-1].Score)
	}

	var sum, sumLog, sumInv float64
	nMax, in5Max, in5Kth := 0, 0, 0
	for _, p := range ps {
		v := float64(p.Impact)
		sum += v
		c := v
		if c < eps {
			c = eps
		}
		sumLog += math.Log(c)
		sumInv += 1 / c
		if v >= max { // nothing exceeds max, so this counts exact hits
			nMax++
		}
		if v >= 0.95*max {
			in5Max++
		}
		if v >= 0.95*kth {
			in5Kth++
		}
	}
	am := sum / n
	gm := math.Exp(sumLog / n)
	hm := n / sumInv

	// Local maxima of the impact sequence in document order (interior
	// points strictly greater than both neighbors).
	var sq float64
	nLocalMax, nLocalMaxAboveAM := 0, 0
	for i, p := range ps {
		d := float64(p.Impact) - am
		sq += d * d
		if i > 0 && i < len(ps)-1 && p.Impact > ps[i-1].Impact && p.Impact > ps[i+1].Impact {
			nLocalMax++
			if float64(p.Impact) > am {
				nLocalMaxAboveAM++
			}
		}
	}

	// Estimated max score: the analytic BM25 upper bound IDF·(k1+1)
	// (paper ref [43] uses a precomputed approximation; the analytic bound
	// plays the same role — cheap, never below the true max, and loose).
	estMax := pl.IDF * (index.BM25K1 + 1)

	var p termProfile
	p[FeatPostingListLength] = n
	p[FeatIDF] = pl.IDF
	p[FeatMaxScore] = max
	p[FeatAMean] = am
	p[FeatGMean] = gm
	p[FeatHMean] = hm
	p[FeatVariance] = sq / n
	p[FeatEstimatedMaxScore] = estMax
	p[FeatNumLocalMaxima] = float64(nLocalMax)
	p[FeatLocalMaximaAboveAMean] = float64(nLocalMaxAboveAM)
	p[FeatNumMaxScore] = float64(nMax)
	p[FeatDocsIn5PctOfMaxScore] = float64(in5Max)
	p[FeatDocsIn5PctOfKthScore] = float64(in5Kth)
	p[FeatDocsEverInTopK] = float64(ex.Stats.DocsEverInTopK)
	return p
}
