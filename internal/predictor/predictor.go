package predictor

import (
	"gemini/internal/search"
	"gemini/internal/stats"
)

// ServicePredictor estimates a query's service time (in ms at the default
// frequency) from its Table II features — paper eq. 1.
type ServicePredictor interface {
	// PredictMs returns the predicted service time at cpu.FDefault.
	PredictMs(fv search.FeatureVector) float64
	// Name identifies the model for reports.
	Name() string
	// OverheadUs is the modeled per-prediction inference latency in
	// microseconds (Fig. 7's x-axis companion).
	OverheadUs() float64
}

// ErrorPredictor estimates the signed error of the service predictor for a
// query (paper §IV-C). The sign convention is actual − predicted, so that
// S* + E* approximates the actual service time: the quantity the two-step
// planner budgets for when computing the boost time (eq. 7).
type ErrorPredictor interface {
	PredictErrMs(fv search.FeatureVector) float64
	Name() string
	OverheadUs() float64
}

// inference overhead model: a fixed dispatch/copy cost plus a per-parameter
// term, calibrated to the paper's measurements (linear 64 µs, NN regressor
// 66 µs, NN classifier 79 µs on their platform).
const (
	overheadBaseUs     = 62.0
	overheadPerParamUs = 2.3e-4
)

func modelOverheadUs(params int) float64 {
	return overheadBaseUs + overheadPerParamUs*float64(params)
}

// Percentile95 predicts the same value for every query: the p-th percentile
// of the training service-time distribution. With p=95 this is exactly the
// conservative estimator Rubik uses and the one Gemini-95th falls back to
// (paper §VI-D).
type Percentile95 struct {
	ValueMs float64
	P       float64
}

// NewPercentile returns a distribution-tail estimator fitted on train.
func NewPercentile(train []Sample, p float64) *Percentile95 {
	times := make([]float64, len(train))
	for i, s := range train {
		times[i] = s.MeasuredMs
	}
	stats.SortAscending(times)
	v := 0.0
	if len(times) > 0 {
		idx := int(p / 100 * float64(len(times)-1))
		v = times[idx]
	}
	return &Percentile95{ValueMs: v, P: p}
}

// PredictMs implements ServicePredictor.
func (p *Percentile95) PredictMs(search.FeatureVector) float64 { return p.ValueMs }

// Name implements ServicePredictor.
func (p *Percentile95) Name() string { return "95th-percentile" }

// OverheadUs implements ServicePredictor: a table lookup is essentially free.
func (p *Percentile95) OverheadUs() float64 { return 1 }

// ZeroError is an ErrorPredictor that always predicts no error — used by
// ablations that disable the second NN entirely.
type ZeroError struct{}

// PredictErrMs implements ErrorPredictor.
func (ZeroError) PredictErrMs(search.FeatureVector) float64 { return 0 }

// Name implements ErrorPredictor.
func (ZeroError) Name() string { return "zero-error" }

// OverheadUs implements ErrorPredictor.
func (ZeroError) OverheadUs() float64 { return 0 }

// Eval summarizes a service predictor on a test set: the fraction of
// predictions whose absolute error exceeds tolMs (Fig. 7's "prediction
// error") and the mean absolute error.
type Eval struct {
	Model      string
	ErrorRate  float64 // fraction with |pred − actual| > tolMs
	MAEMs      float64
	OverheadUs float64
	TolMs      float64
}

// Evaluate runs the predictor over the test samples.
func Evaluate(p ServicePredictor, test []Sample, tolMs float64) Eval {
	if len(test) == 0 {
		return Eval{Model: p.Name(), TolMs: tolMs, OverheadUs: p.OverheadUs()}
	}
	bad := 0
	mae := 0.0
	for _, s := range test {
		d := p.PredictMs(s.Features) - s.MeasuredMs
		if d < 0 {
			d = -d
		}
		mae += d
		if d > tolMs {
			bad++
		}
	}
	return Eval{
		Model:      p.Name(),
		ErrorRate:  float64(bad) / float64(len(test)),
		MAEMs:      mae / float64(len(test)),
		OverheadUs: p.OverheadUs(),
		TolMs:      tolMs,
	}
}

// EvaluateError measures an error predictor: accuracy within tolMs of the
// true residual of the given service predictor (Fig. 8b's "accuracy").
func EvaluateError(ep ErrorPredictor, sp ServicePredictor, test []Sample, tolMs float64) float64 {
	if len(test) == 0 {
		return 0
	}
	hits := 0
	for _, s := range test {
		trueErr := s.MeasuredMs - sp.PredictMs(s.Features)
		d := ep.PredictErrMs(s.Features) - trueErr
		if d < 0 {
			d = -d
		}
		if d <= tolMs {
			hits++
		}
	}
	return float64(hits) / float64(len(test))
}
