package nn

import "math"

// Scaler standardizes feature vectors: optionally log1p-compressing heavy-
// tailed columns (posting-list lengths span orders of magnitude), then
// z-scoring each column from training-set statistics.
type Scaler struct {
	LogCols []bool // which columns get log1p before standardization
	Mean    []float64
	Std     []float64
}

// FitScaler computes per-column statistics from the training inputs.
// logCols may be nil (no log compression).
func FitScaler(X [][]float64, logCols []bool) *Scaler {
	if len(X) == 0 {
		return &Scaler{}
	}
	dim := len(X[0])
	s := &Scaler{
		LogCols: make([]bool, dim),
		Mean:    make([]float64, dim),
		Std:     make([]float64, dim),
	}
	copy(s.LogCols, logCols)
	n := float64(len(X))
	for _, x := range X {
		for j := 0; j < dim; j++ {
			s.Mean[j] += s.raw(j, x[j])
		}
	}
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for _, x := range X {
		for j := 0; j < dim; j++ {
			d := s.raw(j, x[j]) - s.Mean[j]
			s.Std[j] += d * d
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / n)
		if s.Std[j] < 1e-9 {
			s.Std[j] = 1
		}
	}
	return s
}

func (s *Scaler) raw(j int, v float64) float64 {
	if s.logCol(j) {
		if v < 0 {
			v = 0
		}
		return math.Log1p(v)
	}
	return v
}

func (s *Scaler) logCol(j int) bool { return j < len(s.LogCols) && s.LogCols[j] }

// Transform standardizes one vector into a new slice.
func (s *Scaler) Transform(x []float64) []float64 {
	out := make([]float64, len(x))
	s.TransformInto(x, out)
	return out
}

// TransformInto standardizes x into dst (must be same length); columns past
// the scaler's width pass through unchanged.
func (s *Scaler) TransformInto(x, dst []float64) {
	for j := range x {
		if j < len(s.Mean) {
			dst[j] = (s.raw(j, x[j]) - s.Mean[j]) / s.Std[j]
		} else {
			dst[j] = x[j]
		}
	}
}

// TransformAll standardizes a whole data set into new slices.
func (s *Scaler) TransformAll(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, x := range X {
		out[i] = s.Transform(x)
	}
	return out
}
