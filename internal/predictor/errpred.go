package predictor

import (
	"math"

	"gemini/internal/nn"
	"gemini/internal/par"
	"gemini/internal/search"
	"gemini/internal/stats"
)

// errRangeMs bounds the signed error buckets of the NN error predictor:
// classes cover [-errRangeMs, +errRangeMs] at 1 ms granularity.
const errRangeMs = 10

// NNError is Gemini's second model (§IV-C): a classifier over signed error
// buckets, trained on the residuals of a service predictor over the training
// set (labels E = measured − predicted are "easily obtained ... since we can
// keep track of the measured request latencies in the past").
// PredictErrMs is goroutine-safe (reentrant inference with pooled scratch),
// so the platform's shared error NN can serve every parallel sweep worker.
type NNError struct{ *model }

// TrainError fits the error model for the residuals of sp on train, on every
// core.
func TrainError(train []Sample, sp ServicePredictor, cfg Config) *NNError {
	label := func(s Sample) float64 { return float64(errClass(s.MeasuredMs - sp.PredictMs(s.Features))) }
	tr := &nn.Trainer{Loss: &nn.CrossEntropy{}, Opt: nn.NewAdam(cfg.LR), Workers: par.DefaultWorkers()}
	return &NNError{fitModel(train, nil, label, 2*errRangeMs+1, cfg, 2, tr)}
}

// errClass maps a signed ms error to a class index 0..2*errRangeMs by
// rounding to the nearest whole millisecond.
func errClass(e float64) int {
	c := int(math.Round(e)) + errRangeMs
	if c < 0 {
		c = 0
	}
	if c > 2*errRangeMs {
		c = 2 * errRangeMs
	}
	return c
}

// classToErr is the inverse mapping (bucket center).
func classToErr(c int) float64 { return float64(c - errRangeMs) }

// PredictErrMs implements ErrorPredictor.
func (e *NNError) PredictErrMs(fv search.FeatureVector) float64 {
	return e.predict(fv, func(out []float64) float64 { return classToErr(nn.Argmax(out)) })
}

// Name implements ErrorPredictor.
func (e *NNError) Name() string { return "NN error predictor" }

// MovingAvgError is Gemini-α's estimator (§VI-A): a moving average of the
// prediction-error magnitudes observed over the past window (60) request
// departures, plus StdFactor standard deviations of safety. It ignores
// features entirely — exactly the weakness the ablation exposes: because a
// population average "is unable to provide a measure of each request's
// precise residual work, the two-step DVFS has to boost the CPU frequency
// earlier to achieve a lower deadline violation rate" (§VI-D), which is
// where Gemini-α loses power relative to the per-query error NN.
type MovingAvgError struct {
	ma *stats.MovingAverage
	// StdFactor scales the safety term (1 by default).
	StdFactor float64
}

// NewMovingAvgError creates the estimator; the paper's window is 60.
func NewMovingAvgError(window int) *MovingAvgError {
	return &MovingAvgError{ma: stats.NewMovingAverage(window), StdFactor: 1}
}

// Observe records a completed request's error magnitude.
func (m *MovingAvgError) Observe(errMs float64) {
	if errMs < 0 {
		errMs = -errMs
	}
	m.ma.Add(errMs)
}

// PredictErrMs implements ErrorPredictor: mean + StdFactor·std of the
// window's error magnitudes.
func (m *MovingAvgError) PredictErrMs(search.FeatureVector) float64 {
	mean := m.ma.Mean()
	return mean + m.StdFactor*m.ma.Std()
}

// Name implements ErrorPredictor.
func (m *MovingAvgError) Name() string { return "moving-average error" }

// OverheadUs implements ErrorPredictor.
func (m *MovingAvgError) OverheadUs() float64 { return 0.5 }
