package predictor

import (
	"gemini/internal/nn"
	"gemini/internal/par"
	"gemini/internal/search"
)

// Config selects the architecture and training budget of the NN predictors.
type Config struct {
	Hidden    []int // hidden layer widths (relu)
	Epochs    int
	BatchSize int
	LR        float64
	Seed      int64
	MaxMs     int // classifier buckets cover [0, MaxMs] at 1 ms granularity
}

// PaperConfig reproduces the paper's architecture: 5 hidden layers of 128
// relu neurons, trained with Adam (§IV-A). Only `geminisim train -paper`
// trains it. Its full-scale platform build, both networks trained on both
// cores of a 2-vCPU x86-64 host with AVX2, took 19.9–31.4 s (four runs,
// median 24.5 s), against ≈2 s with DefaultConfig; use DefaultConfig for
// interactive runs.
func PaperConfig() Config {
	return Config{Hidden: []int{128, 128, 128, 128, 128}, Epochs: 40, BatchSize: 32, LR: 1e-3, Seed: 1, MaxMs: 60}
}

// DefaultConfig is the scaled-down architecture used by the experiment
// harness: a relu MLP with two hidden layers of 48 (15→48→48→61 for the
// classifier, 15→48→48→21 for the error network) and the paper's per-ms
// classifier head, sized so the whole predictor suite trains in about a
// second.
func DefaultConfig() Config {
	return Config{Hidden: []int{48, 48}, Epochs: 25, BatchSize: 32, LR: 2e-3, Seed: 1, MaxMs: 60}
}

// TestConfig is a minimal configuration for unit tests.
func TestConfig() Config {
	return Config{Hidden: []int{16}, Epochs: 8, BatchSize: 32, LR: 3e-3, Seed: 1, MaxMs: 60}
}

// NNClassifier is the paper's latency predictor: a relu MLP with one output
// neuron per millisecond bucket, trained with sparse categorical
// cross-entropy and Adam (§IV-A). Predictions return the bucket center.
// PredictMs is goroutine-safe (see model).
type NNClassifier struct{ *model }

// TrainClassifier fits the classifier on the training samples using the
// feature columns in cols (nil means all Table II features), on every core
// (nn.Trainer.Workers); the weights are the same on one.
func TrainClassifier(train []Sample, cols []int, cfg Config) *NNClassifier {
	return trainClassifier(train, cols, cfg, par.DefaultWorkers())
}

func trainClassifier(train []Sample, cols []int, cfg Config, workers int) *NNClassifier {
	label := func(s Sample) float64 { return float64(clampClass(s.MeasuredMs, cfg.MaxMs)) }
	tr := &nn.Trainer{Loss: &nn.CrossEntropy{}, Opt: nn.NewAdam(cfg.LR), Workers: workers}
	return &NNClassifier{fitModel(train, cols, label, cfg.MaxMs+1, cfg, 0, tr)}
}

// TrainLinear fits Fig. 7's "simple linear classifier": the classifier with
// no hidden layer, a multinomial logistic regression straight from features
// to per-ms buckets.
func TrainLinear(train []Sample, cfg Config) *NNClassifier {
	cfg.Hidden = nil
	return TrainClassifier(train, nil, cfg)
}

func clampClass(ms float64, maxMs int) int {
	c := int(ms)
	if c < 0 {
		c = 0
	}
	if c > maxMs {
		c = maxMs
	}
	return c
}

// PredictMs implements ServicePredictor: the center of the argmax bucket.
func (c *NNClassifier) PredictMs(fv search.FeatureVector) float64 {
	return c.predict(fv, func(out []float64) float64 { return float64(nn.Argmax(out)) + 0.5 })
}

// Name implements ServicePredictor. A classifier with no hidden layer is the
// linear one.
func (c *NNClassifier) Name() string {
	if len(c.net.Layers) == 1 {
		return "Linear classifier"
	}
	return "NN classifier"
}

// NNRegressor is the Fig. 7 baseline: same MLP body with a single linear
// output trained on MSE with RMSprop (§IV-B). PredictMs is goroutine-safe.
type NNRegressor struct{ *model }

// TrainRegressor fits the regressor on all Table II features, on every core.
func TrainRegressor(train []Sample, cfg Config) *NNRegressor {
	label := func(s Sample) float64 { return s.MeasuredMs }
	tr := &nn.Trainer{Loss: nn.MSE{}, Opt: nn.NewRMSprop(cfg.LR), Workers: par.DefaultWorkers()}
	return &NNRegressor{fitModel(train, nil, label, 1, cfg, 1, tr)}
}

// PredictMs implements ServicePredictor.
func (r *NNRegressor) PredictMs(fv search.FeatureVector) float64 {
	return r.predict(fv, func(out []float64) float64 {
		if out[0] < 0 {
			return 0
		}
		return out[0]
	})
}

// Name implements ServicePredictor.
func (r *NNRegressor) Name() string { return "NN regressor" }
