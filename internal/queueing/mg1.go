// Package queueing provides the closed-form M/G/1 result used to validate the
// discrete-event simulator against theory: with Poisson arrivals (the paper's
// traces are modeled as non-homogeneous Poisson processes) and a general
// service distribution, the Pollaczek–Khinchine formula gives the exact mean
// waiting time — any correct FIFO single-server simulator must converge to
// it. internal/sim's TestEngineConvergesToPollaczekKhinchine holds both event
// engines to it.
package queueing

import "errors"

// MG1 describes an M/G/1 queue: Poisson arrivals at Lambda (requests per
// ms), i.i.d. service times with the given mean and variance (ms, ms²).
type MG1 struct {
	LambdaPerMs   float64
	MeanServiceMs float64
	ServiceVarMs2 float64
}

// ErrUnstable is returned when utilization reaches 1.
var ErrUnstable = errors.New("queueing: utilization >= 1, queue is unstable")

// Rho returns the utilization λ·E[S].
func (m MG1) Rho() float64 { return m.LambdaPerMs * m.MeanServiceMs }

// MeanWaitMs returns the mean queueing delay (Pollaczek–Khinchine):
//
//	Wq = λ·E[S²] / (2(1−ρ)) = ρ·E[S]·(1+C²) / (2(1−ρ))
func (m MG1) MeanWaitMs() (float64, error) {
	rho := m.Rho()
	if rho >= 1 {
		return 0, ErrUnstable
	}
	es2 := m.ServiceVarMs2 + m.MeanServiceMs*m.MeanServiceMs
	return m.LambdaPerMs * es2 / (2 * (1 - rho)), nil
}

// MeanLatencyMs returns the mean sojourn time Wq + E[S].
func (m MG1) MeanLatencyMs() (float64, error) {
	wq, err := m.MeanWaitMs()
	if err != nil {
		return 0, err
	}
	return wq + m.MeanServiceMs, nil
}
