package nn

import "math"

// Optimizer updates a parameter vector in place given its gradient. The id
// distinguishes parameter groups (each layer's W and B) so stateful
// optimizers keep separate moment estimates per group.
type Optimizer interface {
	Step(id int, params, grads []float64)
}

// state is what the package's optimizers carry between steps: Adam's step
// count and each parameter group's moment vectors, a group's made on its
// first step. Trainer.Fit hands each pipeline stage a part holding only its
// own layers' groups and the step count, and absorbs the parts back when the
// stages have joined, so no two goroutines ever write the same state.
type state struct {
	t    int
	m, v map[int][]float64
}

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

// own returns the receiver; the optimizers embedding state inherit it.
func (s *state) own() *state { return s }

// part is a state with s's step count and the vectors of groups [lo, hi).
func (s *state) part(lo, hi int) state {
	p := state{t: s.t}
	copyGroups(&p.m, s.m, lo, hi)
	copyGroups(&p.v, s.v, lo, hi)
	return p
}

// absorb takes back the part that held groups [lo, hi).
func (s *state) absorb(p state, lo, hi int) {
	s.t = p.t
	copyGroups(&s.m, p.m, lo, hi)
	copyGroups(&s.v, p.v, lo, hi)
}

// copyGroups puts src's vectors of groups [lo, hi) into *dst.
func copyGroups(dst *map[int][]float64, src map[int][]float64, lo, hi int) {
	for id := lo; id < hi; id++ {
		if x, ok := src[id]; ok {
			if *dst == nil {
				*dst = make(map[int][]float64)
			}
			(*dst)[id] = x
		}
	}
}

// splittable is an optimizer whose state Fit can divide among its stages:
// with returns a copy of it, same hyperparameters, carrying s.
type splittable interface {
	Optimizer
	own() *state
	with(s state) Optimizer
}

// SGD is stochastic gradient descent with optional classical momentum.
type SGD struct {
	LR       float64
	Momentum float64 // 0 disables the velocity term

	state
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
	v := vec(&s.v, id, len(params))
	for i := range params {
		v[i] = s.Momentum*v[i] - s.LR*grads[i]
		params[i] += v[i]
	}
}

func (s *SGD) with(st state) Optimizer { c := *s; c.state = st; return &c }

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

// BeginStep advances Adam's shared time step; call once per batch before
// stepping the parameter groups.
func (a *Adam) BeginStep() { a.t++ }

// Step applies one Adam update to a parameter group.
func (a *Adam) Step(id int, params, grads []float64) {
	if a.t == 0 {
		a.t = 1 // tolerate callers that skip BeginStep
	}
	m, v := vec(&a.m, id, len(params)), vec(&a.v, id, len(params))
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

func (a *Adam) with(st state) Optimizer { c := *a; c.state = st; return &c }

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

// BeginStep is a no-op; RMSprop keeps no shared step counter.
func (r *RMSprop) BeginStep() {}

// Step applies one RMSprop update to a parameter group.
func (r *RMSprop) Step(id int, params, grads []float64) {
	v := vec(&r.v, id, len(params))
	for i := range params {
		g := grads[i]
		v[i] = r.Rho*v[i] + (1-r.Rho)*g*g
		params[i] -= r.LR * g / (math.Sqrt(v[i]) + r.Eps)
	}
}

func (r *RMSprop) with(st state) Optimizer { c := *r; c.state = st; return &c }
