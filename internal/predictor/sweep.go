package predictor

import (
	"gemini/internal/par"
	"gemini/internal/search"
)

// SweepPoint is one row of the Fig. 6 feature-importance sweep: the accuracy
// of a classifier trained on the first i+1 features of the order.
type SweepPoint struct {
	Feature  string  // feature added at this step
	Accuracy float64 // ±1 ms classification accuracy on the test set
}

// DefaultSweepOrder is the bottom-to-top feature-addition order of Fig. 6
// (all Table II features except Query_Length, which the figure omits).
func DefaultSweepOrder() []int {
	order := make([]int, 0, search.NumFeatures-1)
	for i := 0; i < search.NumFeatures-1; i++ {
		order = append(order, i)
	}
	return order
}

// FeatureSweep retrains the NN classifier with a growing feature subset and
// reports test accuracy after each addition — the reproduction of Fig. 6.
// Accuracy is the fraction of test samples predicted within ±1 ms. The
// trainings share nothing but the read-only dataset, so they fan over
// `workers` goroutines (1 runs serially), each into its own point; the
// result is the same for any worker count.
func FeatureSweep(ds *Dataset, cfg Config, order []int, workers int) []SweepPoint {
	if order == nil {
		order = DefaultSweepOrder()
	}
	points := make([]SweepPoint, len(order))
	par.Run(workers, len(order), func(i int) {
		clf := TrainClassifier(ds.Train, order[:i+1], cfg)
		points[i] = SweepPoint{Feature: search.FeatureNames[order[i]], Accuracy: classifierAccuracy(clf, ds.Test, 1.0)}
	})
	return points
}

// classifierAccuracy is the fraction of test samples with |prediction −
// measured| <= tolMs.
func classifierAccuracy(p ServicePredictor, test []Sample, tolMs float64) float64 {
	e := Evaluate(p, test, tolMs)
	return 1 - e.ErrorRate
}
