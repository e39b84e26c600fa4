package predictor

import (
	"sync"

	"gemini/internal/nn"
	"gemini/internal/par"
	"gemini/internal/search"
)

// inferScratch bundles the per-call buffers of one NN prediction: the raw
// feature projection, the scaled network input, and the forward-pass arena.
// Predictors keep these in a sync.Pool so PredictMs is allocation-free and
// safe to call from many goroutines at once (the trained networks and
// scalers are read-only at inference time).
type inferScratch struct {
	raw []float64
	in  []float64
	ar  *nn.Arena
}

// scratchPool amortizes inferScratch allocation for one trained network.
type scratchPool struct {
	pool sync.Pool
}

func (p *scratchPool) get(net *nn.Network) *inferScratch {
	if s, ok := p.pool.Get().(*inferScratch); ok {
		return s
	}
	in := net.InDim()
	return &inferScratch{raw: make([]float64, in), in: make([]float64, in), ar: net.NewArena()}
}

func (p *scratchPool) put(s *inferScratch) { p.pool.Put(s) }

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
// PredictMs is goroutine-safe: inference runs through the reentrant nn.Infer
// path with pooled scratch, so one trained classifier can be shared by every
// worker of the parallel experiment harness and by concurrent server
// handlers.
type NNClassifier struct {
	net     *nn.Network
	scaler  *nn.Scaler
	cols    []int // feature subset (nil = all); supports the Fig. 6 sweep
	maxMs   int
	scratch scratchPool
}

// TrainClassifier fits the classifier on the training samples using the
// feature columns in cols (nil means all Table II features), on every core
// (nn.Trainer.Workers); the weights are the same on one.
func TrainClassifier(train []Sample, cols []int, cfg Config) *NNClassifier {
	return trainClassifier(train, cols, cfg, par.DefaultWorkers())
}

func trainClassifier(train []Sample, cols []int, cfg Config, workers int) *NNClassifier {
	X, Y := featureMatrix(train, cols)
	scaler := nn.FitScaler(X, logColumns(cols))
	Xs := scaler.TransformAll(X)
	classes := cfg.MaxMs + 1
	for i := range Y {
		Y[i] = float64(clampClass(Y[i], cfg.MaxMs))
	}
	net := nn.NewMLP(len(Xs[0]), cfg.Hidden, classes, cfg.Seed)
	tr := &nn.Trainer{
		Net: net, Loss: &nn.CrossEntropy{}, Opt: nn.NewAdam(cfg.LR),
		BatchSize: cfg.BatchSize, Epochs: cfg.Epochs, Seed: cfg.Seed + 100,
		Workers: workers,
	}
	_, _ = tr.Fit(Xs, Y)
	return &NNClassifier{net: net, scaler: scaler, cols: cols, maxMs: cfg.MaxMs}
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

// project fills s.in with the scaled (and optionally column-projected)
// feature vector.
func (c *NNClassifier) project(fv search.FeatureVector, s *inferScratch) []float64 {
	if c.cols == nil {
		c.scaler.TransformInto(fv[:], s.in)
	} else {
		for j, col := range c.cols {
			s.raw[j] = fv[col]
		}
		c.scaler.TransformInto(s.raw[:len(c.cols)], s.in)
	}
	return s.in
}

// PredictMs implements ServicePredictor: the center of the argmax bucket.
func (c *NNClassifier) PredictMs(fv search.FeatureVector) float64 {
	s := c.scratch.get(c.net)
	v := float64(nn.Argmax(c.net.Infer(c.project(fv, s), s.ar))) + 0.5
	c.scratch.put(s)
	return v
}

// Name implements ServicePredictor.
func (c *NNClassifier) Name() string { return "NN classifier" }

// OverheadUs implements ServicePredictor.
func (c *NNClassifier) OverheadUs() float64 { return modelOverheadUs(c.net.NumParams()) }

// Network exposes the underlying model (for persistence).
func (c *NNClassifier) Network() *nn.Network { return c.net }

// NNRegressor is the Fig. 7 baseline: same MLP body with a single linear
// output trained on MSE with RMSprop (§IV-B). PredictMs is goroutine-safe.
type NNRegressor struct {
	net     *nn.Network
	scaler  *nn.Scaler
	scratch scratchPool
}

// TrainRegressor fits the regressor on all Table II features, on every core.
func TrainRegressor(train []Sample, cfg Config) *NNRegressor {
	X, Y := featureMatrix(train, nil)
	scaler := nn.FitScaler(X, logColumns(nil))
	Xs := scaler.TransformAll(X)
	net := nn.NewMLP(len(Xs[0]), cfg.Hidden, 1, cfg.Seed+1)
	tr := &nn.Trainer{
		Net: net, Loss: nn.MSE{}, Opt: nn.NewRMSprop(cfg.LR),
		BatchSize: cfg.BatchSize, Epochs: cfg.Epochs, Seed: cfg.Seed + 101,
		Workers: par.DefaultWorkers(),
	}
	_, _ = tr.Fit(Xs, Y)
	return &NNRegressor{net: net, scaler: scaler}
}

// PredictMs implements ServicePredictor.
func (r *NNRegressor) PredictMs(fv search.FeatureVector) float64 {
	s := r.scratch.get(r.net)
	r.scaler.TransformInto(fv[:], s.in)
	v := r.net.Infer(s.in, s.ar)[0]
	r.scratch.put(s)
	if v < 0 {
		v = 0
	}
	return v
}

// Name implements ServicePredictor.
func (r *NNRegressor) Name() string { return "NN regressor" }

// OverheadUs implements ServicePredictor.
func (r *NNRegressor) OverheadUs() float64 { return modelOverheadUs(r.net.NumParams()) }

// LinearClassifier is the Fig. 7 "simple linear classifier": multinomial
// logistic regression straight from features to per-ms buckets.
type LinearClassifier struct {
	inner *NNClassifier
}

// TrainLinear fits the linear classifier.
func TrainLinear(train []Sample, cfg Config) *LinearClassifier {
	linCfg := cfg
	linCfg.Hidden = nil
	return &LinearClassifier{inner: TrainClassifier(train, nil, linCfg)}
}

// PredictMs implements ServicePredictor.
func (l *LinearClassifier) PredictMs(fv search.FeatureVector) float64 {
	return l.inner.PredictMs(fv)
}

// Name implements ServicePredictor.
func (l *LinearClassifier) Name() string { return "Linear classifier" }

// OverheadUs implements ServicePredictor.
func (l *LinearClassifier) OverheadUs() float64 {
	return modelOverheadUs(l.inner.net.NumParams())
}
