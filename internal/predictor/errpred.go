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
type NNError struct {
	net     *nn.Network
	scaler  *nn.Scaler
	scratch scratchPool
}

// TrainError fits the error model for the residuals of sp on train, on every
// core.
func TrainError(train []Sample, sp ServicePredictor, cfg Config) *NNError {
	X, _ := featureMatrix(train, nil)
	scaler := nn.FitScaler(X, logColumns(nil))
	Xs := scaler.TransformAll(X)
	Y := make([]float64, len(train))
	for i, s := range train {
		e := s.MeasuredMs - sp.PredictMs(s.Features)
		Y[i] = float64(errClass(e))
	}
	classes := 2*errRangeMs + 1
	net := nn.NewMLP(len(Xs[0]), cfg.Hidden, classes, cfg.Seed+2)
	tr := &nn.Trainer{
		Net: net, Loss: &nn.CrossEntropy{}, Opt: nn.NewAdam(cfg.LR),
		BatchSize: cfg.BatchSize, Epochs: cfg.Epochs, Seed: cfg.Seed + 102,
		Workers: par.DefaultWorkers(),
	}
	_, _ = tr.Fit(Xs, Y)
	return &NNError{net: net, scaler: scaler}
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
	s := e.scratch.get(e.net)
	e.scaler.TransformInto(fv[:], s.in)
	v := classToErr(nn.Argmax(e.net.Infer(s.in, s.ar)))
	e.scratch.put(s)
	return v
}

// Name implements ErrorPredictor.
func (e *NNError) Name() string { return "NN error predictor" }

// OverheadUs implements ErrorPredictor.
func (e *NNError) OverheadUs() float64 { return modelOverheadUs(e.net.NumParams()) }

// Accuracy returns the fraction of test samples whose predicted error is
// within tolMs of the true residual of sp (the paper reports 85%, Fig. 8b).
func (e *NNError) Accuracy(test []Sample, sp ServicePredictor, tolMs float64) float64 {
	return EvaluateError(e, sp, test, tolMs)
}

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
