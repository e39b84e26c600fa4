package stats

import "math"

// Online accumulates mean and variance incrementally using Welford's
// algorithm. The zero value is ready to use.
type Online struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// N returns the number of observations.
func (o *Online) N() int { return o.n }

// Mean returns the running mean (0 if no observations).
func (o *Online) Mean() float64 { return o.mean }

// Variance returns the running population variance.
func (o *Online) Variance() float64 {
	if o.n == 0 {
		return 0
	}
	return o.m2 / float64(o.n)
}

// Min returns the smallest observation (0 if none).
func (o *Online) Min() float64 { return o.min }

// Max returns the largest observation (0 if none).
func (o *Online) Max() float64 { return o.max }

// MovingAverage keeps the mean of the last Window observations. It backs
// Gemini-α, which estimates the current request's prediction error as the
// moving average of the errors seen over the past 60 request arrivals
// (paper §VI-A).
type MovingAverage struct {
	window int
	buf    []float64
	next   int
	filled bool
	sum    float64
}

// NewMovingAverage creates a moving average over the given window size.
func NewMovingAverage(window int) *MovingAverage {
	if window <= 0 {
		window = 1
	}
	return &MovingAverage{window: window, buf: make([]float64, window)}
}

// Add records one observation, evicting the oldest when the window is full.
func (m *MovingAverage) Add(x float64) {
	if m.filled {
		m.sum -= m.buf[m.next]
	}
	m.buf[m.next] = x
	m.sum += x
	m.next++
	if m.next == m.window {
		m.next = 0
		m.filled = true
	}
}

// Mean returns the mean of the observations currently in the window, or 0 if
// none have been recorded.
func (m *MovingAverage) Mean() float64 {
	n := m.Len()
	if n == 0 {
		return 0
	}
	return m.sum / float64(n)
}

// Len returns the number of observations currently in the window.
func (m *MovingAverage) Len() int {
	if m.filled {
		return m.window
	}
	return m.next
}

// Std returns the population standard deviation of the observations
// currently in the window (0 if fewer than two).
func (m *MovingAverage) Std() float64 {
	n := m.Len()
	if n < 2 {
		return 0
	}
	mean := m.Mean()
	sum := 0.0
	for i := 0; i < n; i++ {
		d := m.buf[i] - mean
		sum += d * d
	}
	return math.Sqrt(sum / float64(n))
}
