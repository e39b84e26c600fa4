package nn

import "math"

// Optimizer updates a parameter vector in place given its gradient. The id
// distinguishes parameter groups (each layer's W and B) so stateful
// optimizers keep separate moment estimates per group.
type Optimizer interface {
	Step(id int, params, grads []float64)
}

// SGD is stochastic gradient descent with optional classical momentum.
type SGD struct {
	LR       float64
	Momentum float64 // 0 disables the velocity term

	v map[int][]float64
}

// Step applies v = Momentum·v − LR·g; params += v (plain descent when
// Momentum is zero).
func (s *SGD) Step(id int, params, grads []float64) {
	if s.Momentum == 0 {
		for i := range params {
			params[i] -= s.LR * grads[i]
		}
		return
	}
	if s.v == nil {
		s.v = make(map[int][]float64)
	}
	v, ok := s.v[id]
	if !ok {
		v = make([]float64, len(params))
		s.v[id] = v
	}
	for i := range params {
		v[i] = s.Momentum*v[i] - s.LR*grads[i]
		params[i] += v[i]
	}
}

// Adam implements Kingma & Ba's optimizer (the paper trains the latency
// classifier with Adam, §IV-A).
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t int
	m map[int][]float64
	v map[int][]float64
}

// NewAdam returns Adam with the usual defaults and the given learning rate.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[int][]float64), v: make(map[int][]float64)}
}

// BeginStep advances Adam's shared time step; call once per batch before
// stepping the parameter groups.
func (a *Adam) BeginStep() { a.t++ }

// Step applies one Adam update to a parameter group.
func (a *Adam) Step(id int, params, grads []float64) {
	if a.t == 0 {
		a.t = 1 // tolerate callers that skip BeginStep
	}
	m, ok := a.m[id]
	if !ok {
		m = make([]float64, len(params))
		a.m[id] = m
		a.v[id] = make([]float64, len(params))
	}
	v := a.v[id]
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	if useAVX2 {
		// The kernel runs the loop below four elements at a time, each one's
		// operations in the same order; it trusts the lengths, so they are
		// checked here as the loop's indexing would.
		n := len(params)
		k := [8]float64{a.Beta1, 1 - a.Beta1, a.Beta2, 1 - a.Beta2, c1, c2, a.LR, a.Eps}
		adamAVX2(params, grads[:n], m[:n], v[:n], &k)
		return
	}
	for i := range params {
		g := grads[i]
		m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
		v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
		mhat := m[i] / c1
		vhat := v[i] / c2
		params[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
	}
}

// RMSprop implements the optimizer the paper uses for the NN regressor
// variant (§IV-B).
type RMSprop struct {
	LR, Rho, Eps float64

	v map[int][]float64
}

// NewRMSprop returns RMSprop with the usual defaults.
func NewRMSprop(lr float64) *RMSprop {
	return &RMSprop{LR: lr, Rho: 0.9, Eps: 1e-8, v: make(map[int][]float64)}
}

// BeginStep is a no-op; RMSprop keeps no shared step counter.
func (r *RMSprop) BeginStep() {}

// Step applies one RMSprop update to a parameter group.
func (r *RMSprop) Step(id int, params, grads []float64) {
	v, ok := r.v[id]
	if !ok {
		v = make([]float64, len(params))
		r.v[id] = v
	}
	for i := range params {
		g := grads[i]
		v[i] = r.Rho*v[i] + (1-r.Rho)*g*g
		params[i] -= r.LR * g / (math.Sqrt(v[i]) + r.Eps)
	}
}
