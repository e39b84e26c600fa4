package nn

import "math"

// Optimizer updates parameter vectors in place given their gradients: Adam
// and RMSprop, the package's optimizers, are the only ones. The id
// distinguishes parameter groups (each layer's W and B) so stateful
// optimizers keep separate moment estimates per group. Its update of a
// parameter reads only that parameter, its gradient, its moments and the step
// count, so Trainer.Fit's workers step disjoint ranges of one group at once:
// moments makes a group's vectors on the caller's goroutine before they
// start, and update steps any range of it.
type Optimizer interface {
	// BeginStep advances the step count; call it once per batch, before
	// stepping the parameter groups.
	BeginStep()
	// Step steps one whole parameter group.
	Step(id int, params, grads []float64)
	// moments returns group id's moment vectors, n long, made zero on first
	// use; nil for a moment the optimizer does not keep.
	moments(id, n int) (m, v []float64)
	// update steps params by grads, with m and v the same range of the
	// group's moments (nil where moments returned nil).
	update(params, grads, m, v []float64)
}

// state is what the package's optimizers carry between steps: the step count
// (only Adam reads it) and each parameter group's moment vectors, a group's
// made on its first step.
type state struct {
	t    int
	m, v map[int][]float64
}

// BeginStep implements Optimizer.
func (s *state) BeginStep() { s.t++ }

// vec returns group id's vector in *vs, made zero and n long on first use.
func vec(vs *map[int][]float64, id, n int) []float64 {
	if *vs == nil {
		*vs = make(map[int][]float64)
	}
	x, ok := (*vs)[id]
	if !ok {
		x = make([]float64, n)
		(*vs)[id] = x
	}
	return x
}

// Adam implements Kingma & Ba's optimizer (the paper trains the latency
// classifier with Adam, §IV-A).
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	state
}

// NewAdam returns Adam with the usual defaults and the given learning rate.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one Adam update to a parameter group.
func (a *Adam) Step(id int, params, grads []float64) {
	if a.t == 0 {
		a.t = 1 // tolerate callers that skip BeginStep
	}
	m, v := a.moments(id, len(params))
	a.update(params, grads, m, v)
}

func (a *Adam) moments(id, n int) (m, v []float64) {
	return vec(&a.m, id, n), vec(&a.v, id, n)
}

func (a *Adam) update(params, grads, m, v []float64) {
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

	state
}

// NewRMSprop returns RMSprop with the usual defaults.
func NewRMSprop(lr float64) *RMSprop {
	return &RMSprop{LR: lr, Rho: 0.9, Eps: 1e-8}
}

// Step applies one RMSprop update to a parameter group.
func (r *RMSprop) Step(id int, params, grads []float64) {
	m, v := r.moments(id, len(params))
	r.update(params, grads, m, v)
}

func (r *RMSprop) moments(id, n int) (m, v []float64) { return nil, vec(&r.v, id, n) }

func (r *RMSprop) update(params, grads, _, v []float64) {
	for i := range params {
		g := grads[i]
		v[i] = r.Rho*v[i] + (1-r.Rho)*g*g
		params[i] -= r.LR * g / (math.Sqrt(v[i]) + r.Eps)
	}
}
