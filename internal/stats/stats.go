// Package stats provides the small statistical toolkit used throughout the
// Gemini reproduction: percentiles, empirical CDFs, histograms, online
// moments, sliding-window averages, simple linear regression, and reservoir
// sampling.
//
// All routines are deterministic and allocation-conscious; they are used both
// by the simulator's metrics pipeline and by the experiment harness that
// regenerates the paper's tables and figures.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by routines that need at least one sample.
var ErrEmpty = errors.New("stats: empty sample set")

// errPercentileRange is returned (and panicked with by PercentileSorted) for
// a percentile outside [0,100] or NaN.
var errPercentileRange = errors.New("stats: percentile out of range [0,100]")

// validPercentile reports whether p is in [0,100]; NaN is not.
func validPercentile(p float64) bool { return p >= 0 && p <= 100 }

// Percentile returns the p-th percentile (0 <= p <= 100) of values using
// linear interpolation between closest ranks. The input slice is not
// modified.
func Percentile(values []float64, p float64) (float64, error) {
	if len(values) == 0 {
		return 0, ErrEmpty
	}
	if !validPercentile(p) {
		return 0, errPercentileRange
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	SortAscending(sorted)
	return percentileSorted(sorted, p), nil
}

// PercentileSorted is like Percentile but assumes values are already sorted
// ascending and avoids the copy. It panics on an empty slice and on a
// percentile outside [0,100] or NaN.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("stats: PercentileSorted on empty slice")
	}
	if !validPercentile(p) {
		panic(errPercentileRange)
	}
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of values.
func Mean(values []float64) (float64, error) {
	if len(values) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values)), nil
}

// Variance returns the population variance of values.
func Variance(values []float64) (float64, error) {
	if len(values) == 0 {
		return 0, ErrEmpty
	}
	mean, _ := Mean(values)
	sum := 0.0
	for _, v := range values {
		d := v - mean
		sum += d * d
	}
	return sum / float64(len(values)), nil
}

// Max returns the maximum of values.
func Max(values []float64) (float64, error) {
	if len(values) == 0 {
		return 0, ErrEmpty
	}
	m := values[0]
	for _, v := range values[1:] {
		if v > m {
			m = v
		}
	}
	return m, nil
}

// Min returns the minimum of values.
func Min(values []float64) (float64, error) {
	if len(values) == 0 {
		return 0, ErrEmpty
	}
	m := values[0]
	for _, v := range values[1:] {
		if v < m {
			m = v
		}
	}
	return m, nil
}

// CDF is an empirical cumulative distribution function built from a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from the sample. The input is copied.
func NewCDF(values []float64) (*CDF, error) {
	if len(values) == 0 {
		return nil, ErrEmpty
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	SortAscending(sorted)
	return &CDF{sorted: sorted}, nil
}

// At returns P(X <= x) for the empirical distribution.
func (c *CDF) At(x float64) float64 {
	// Index of first element > x.
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-quantile (0 <= q <= 1) of the distribution.
func (c *CDF) Quantile(q float64) float64 {
	return percentileSorted(c.sorted, q*100)
}

// Len returns the number of samples behind the CDF.
func (c *CDF) Len() int { return len(c.sorted) }

// Points renders the CDF as n evenly spaced (x, P(X<=x)) points across the
// sample range, convenient for printing figure series.
func (c *CDF) Points(n int) [][2]float64 {
	if n < 2 {
		n = 2
	}
	lo, hi := c.sorted[0], c.sorted[len(c.sorted)-1]
	pts := make([][2]float64, n)
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		pts[i] = [2]float64{x, c.At(x)}
	}
	return pts
}
