package predictor

import (
	"sync"

	"gemini/internal/nn"
	"gemini/internal/search"
)

// model is what the NN predictors share: the latency classifier (§IV-A), the
// error classifier (§IV-C) and Fig. 7's baselines all read the Table II
// features through one input rule. The scaler log1p-compresses and z-scores
// all search.NumFeatures columns, and a Fig. 6 subset then picks its columns
// from the scaled vector. A column's statistics depend on that column alone,
// so picking after scaling gives the bits of a scaler fitted to the subset.
//
// Prediction is goroutine-safe: inference runs through the reentrant
// nn.Infer path with pooled scratch and only reads the network and scaler,
// so one trained model serves every worker of the parallel experiment
// harness and concurrent server handlers.
type model struct {
	net    *nn.Network
	scaler *nn.Scaler // always search.NumFeatures wide
	cols   []int      // network inputs picked after scaling; nil means all
	pool   sync.Pool  // *inferScratch
}

// inferScratch is one prediction's buffers: the scaled features, then room
// for the picked columns, and the forward-pass arena.
type inferScratch struct {
	in []float64
	ar *nn.Arena
}

// logCols marks the Table II features that are log1p-compressed before
// standardization (the count-like, heavy-tailed ones).
var logCols = [search.NumFeatures]bool{
	search.FeatPostingListLength:     true,
	search.FeatNumLocalMaxima:        true,
	search.FeatLocalMaximaAboveAMean: true,
	search.FeatNumMaxScore:           true,
	search.FeatDocsIn5PctOfMaxScore:  true,
	search.FeatDocsIn5PctOfKthScore:  true,
	search.FeatDocsEverInTopK:        true,
	search.FeatVariance:              true,
}

// fitModel fits the scaler to train's features, picks cols from the scaled
// rows and trains a new network with the given outputs on label(s) for each
// sample. tr brings the loss, optimizer and worker count; the network is
// seeded with cfg.Seed+k and the batch order with cfg.Seed+100+k, so each
// of the package's models draws its own streams.
func fitModel(train []Sample, cols []int, label func(Sample) float64, outputs int, cfg Config, k int64, tr *nn.Trainer) *model {
	X := make([][]float64, len(train))
	Y := make([]float64, len(train))
	for i := range train {
		X[i] = train[i].Features[:]
		Y[i] = label(train[i])
	}
	scaler := nn.FitScaler(X, logCols[:])
	X = scaler.TransformAll(X)
	in := search.NumFeatures
	if cols != nil {
		in = len(cols)
		for i, x := range X {
			X[i] = pick(x, cols, make([]float64, in))
		}
	}
	tr.Net = nn.NewMLP(in, cfg.Hidden, outputs, cfg.Seed+k)
	tr.BatchSize, tr.Epochs, tr.Seed = cfg.BatchSize, cfg.Epochs, cfg.Seed+100+k
	_, _ = tr.Fit(X, Y)
	return &model{net: tr.Net, scaler: scaler, cols: cols}
}

// pick returns the network input for the scaled features x: x itself, or
// its cols gathered into dst.
func pick(x []float64, cols []int, dst []float64) []float64 {
	if cols == nil {
		return x
	}
	for j, c := range cols {
		dst[j] = x[c]
	}
	return dst[:len(cols)]
}

// predict scales fv, runs the network and returns decode of its output,
// which lives in the pooled scratch and is read before it goes back.
func (m *model) predict(fv search.FeatureVector, decode func(out []float64) float64) float64 {
	s, ok := m.pool.Get().(*inferScratch)
	if !ok {
		s = &inferScratch{in: make([]float64, search.NumFeatures+len(m.cols)), ar: m.net.NewArena()}
	}
	x := s.in[:search.NumFeatures]
	m.scaler.TransformInto(fv[:], x)
	v := decode(m.net.Infer(pick(x, m.cols, s.in[search.NumFeatures:]), s.ar))
	m.pool.Put(s)
	return v
}

// OverheadUs implements ServicePredictor and ErrorPredictor.
func (m *model) OverheadUs() float64 { return modelOverheadUs(m.net.NumParams()) }

// Network exposes the underlying network (for persistence and the ledger).
func (m *model) Network() *nn.Network { return m.net }
