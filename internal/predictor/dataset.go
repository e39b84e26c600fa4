// Package predictor implements Gemini's learned service-time and error
// predictors (paper §IV): the per-millisecond NN latency classifier, the NN
// regressor and linear-classifier baselines of Fig. 7, the 95th-percentile
// distribution estimator used by Rubik and Gemini-95th, the second NN that
// predicts the first's error (§IV-C), and the moving-average error estimator
// of Gemini-α.
package predictor

import (
	"math/rand"

	"gemini/internal/corpus"
	"gemini/internal/cpu"
	"gemini/internal/search"
)

// Sample is one labeled observation: a query, its Table II features, and the
// measured service time at the default frequency (including the jitter that
// makes prediction imperfect).
type Sample struct {
	Query      corpus.Query
	Features   search.FeatureVector
	BaseWork   cpu.Work
	MeasuredMs float64 // at cpu.FDefault
}

// Dataset is a labeled collection with the train/test split used by all
// model evaluations.
type Dataset struct {
	Train []Sample
	Test  []Sample
}

// Builder produces labeled samples by executing queries on the engine and
// applying the jitter model — the reproduction's stand-in for measuring
// wall-clock service times on the Solr testbed.
type Builder struct {
	Engine    *search.Engine
	Extractor *search.Extractor
	Cost      *search.CostModel
	Jitter    *search.Jitter
}

// Sample labels a single query with a fresh jitter draw from rng.
func (b *Builder) Sample(q corpus.Query, rng *rand.Rand) Sample {
	return b.label(q, b.Engine.Search(q).Stats, rng)
}

// label is Sample for an execution of q that has already run and counted st.
func (b *Builder) label(q corpus.Query, st search.ExecStats, rng *rand.Rand) Sample {
	fv := b.Extractor.Features(q)
	base := b.Cost.WorkFor(st)
	measured := b.Jitter.MeasuredWork(base, fv, rng)
	return Sample{
		Query:      q,
		Features:   fv,
		BaseWork:   base,
		MeasuredMs: cpu.TimeFor(measured, cpu.FDefault),
	}
}

// Build labels all queries and splits them into train/test with the given
// test fraction (deterministically, by position after a seeded shuffle).
func (b *Builder) Build(queries []corpus.Query, testFrac float64, seed int64) *Dataset {
	stats := make([]search.ExecStats, len(queries))
	for i, q := range queries {
		stats[i] = b.Engine.Search(q).Stats
	}
	return b.BuildFrom(queries, stats, testFrac, seed)
}

// BuildFrom is Build for a caller that has already run the queries: stats[i]
// is what the engine counted executing queries[i]. The jitter draws fall in
// query order, as in Build, so the two return the same dataset.
func (b *Builder) BuildFrom(queries []corpus.Query, stats []search.ExecStats, testFrac float64, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	samples := make([]Sample, len(queries))
	for i, q := range queries {
		samples[i] = b.label(q, stats[i], rng)
	}
	rng.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
	nTest := int(float64(len(samples)) * testFrac)
	if nTest < 1 && len(samples) > 1 {
		nTest = 1
	}
	return &Dataset{Train: samples[nTest:], Test: samples[:nTest]}
}

// featureMatrix extracts the raw feature rows (optionally restricted to a
// subset of feature indices) and the measured-ms labels.
func featureMatrix(samples []Sample, cols []int) ([][]float64, []float64) {
	X := make([][]float64, len(samples))
	Y := make([]float64, len(samples))
	for i, s := range samples {
		if cols == nil {
			row := make([]float64, search.NumFeatures)
			copy(row, s.Features[:])
			X[i] = row
		} else {
			row := make([]float64, len(cols))
			for j, c := range cols {
				row[j] = s.Features[c]
			}
			X[i] = row
		}
		Y[i] = s.MeasuredMs
	}
	return X, Y
}

// logColumns returns which Table II features should be log1p-compressed
// before standardization (the count-like, heavy-tailed ones).
func logColumns(cols []int) []bool {
	heavy := map[int]bool{
		search.FeatPostingListLength:     true,
		search.FeatNumLocalMaxima:        true,
		search.FeatLocalMaximaAboveAMean: true,
		search.FeatNumMaxScore:           true,
		search.FeatDocsIn5PctOfMaxScore:  true,
		search.FeatDocsIn5PctOfKthScore:  true,
		search.FeatDocsEverInTopK:        true,
		search.FeatVariance:              true,
	}
	if cols == nil {
		out := make([]bool, search.NumFeatures)
		for i := range out {
			out[i] = heavy[i]
		}
		return out
	}
	out := make([]bool, len(cols))
	for j, c := range cols {
		out[j] = heavy[c]
	}
	return out
}
