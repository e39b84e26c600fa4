// Package nn is a small, dependency-free neural-network library sufficient
// to reproduce the paper's predictors: dense multi-layer perceptrons with
// relu activations, softmax cross-entropy (the "sparse categorical
// cross-entropy" used for the latency classifier, §IV-A) and MSE losses, and
// Adam / RMSprop optimizers (§IV-A, §IV-B). Everything is deterministic for
// a given seed.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"gemini/internal/simd"
)

// Activation selects a layer's element-wise nonlinearity.
type Activation int

const (
	// Identity applies no nonlinearity (used for output layers; softmax is
	// folded into the cross-entropy loss for stability).
	Identity Activation = iota
	// ReLU applies max(0, x).
	ReLU
)

// Dense is one fully connected layer: y = act(W·x + b) with W stored
// row-major as Out rows of In weights.
type Dense struct {
	In, Out int
	W       []float64 // len Out*In
	B       []float64 // len Out
	Act     Activation

	// gradW and gradB are the gradient sums Trainer.Fit steps W and B by.
	gradW []float64
	gradB []float64

	// wt is W input-major for the AVX2 forward kernel, In rows of
	// tStride(Out); nil where the CPU has no AVX2. Code that writes W calls
	// transposeW after it (kernel.go), which also sets sparse: whether the
	// kernel may skip the layer's ±0 inputs and keep the dense sum's bits.
	wt     []float64
	sparse bool
}

// newLayer wraps weights w (out×in, row-major) and biases b in a layer with
// its gradient sums. NewDense and Load both build layers here, so a loaded
// network trains exactly like the one that was saved.
func newLayer(in, out int, act Activation, w, b []float64) *Dense {
	d := &Dense{
		In: in, Out: out, Act: act, W: w, B: b,
		gradW: make([]float64, out*in), gradB: make([]float64, out),
	}
	if hasAVX2 {
		d.wt = make([]float64, in*tStride(out))
		d.transposeW()
	}
	return d
}

// NewDense creates a layer with He-uniform initialization (appropriate for
// relu) from the given RNG.
func NewDense(in, out int, act Activation, rng *rand.Rand) *Dense {
	w := make([]float64, out*in)
	limit := math.Sqrt(6.0 / float64(in))
	for i := range w {
		w[i] = (rng.Float64()*2 - 1) * limit
	}
	return newLayer(in, out, act, w, make([]float64, out))
}

// affineRows writes z[o] = b[o] + Σ_i w[o·in+i]·x[i] for every row o of the
// row-major matrix w: the Go multiply-accumulate of the forward pass where
// the AVX2 kernel does not run (kernel.go). A single output is one
// chain of dependent adds, so a row at a time runs at floating-point add
// latency; four rows per pass keep four
// independent chains in flight over one read of x, with a row-at-a-time tail
// for the last len(z) % 4. Each output's own sum keeps its order (bias first,
// then the products by ascending i), so the result is the row-at-a-time
// loop's to the last bit: the trained weights and every fingerprint
// downstream depend on that. The block loop advances by reslicing w, b and z
// rather than by an index: with an index and four row slices live the
// compiler runs out of registers and spills the inner loop's counter.
func affineRows(w, b []float64, in int, x, z []float64) {
	n := len(x)
	for len(z) >= 4 {
		r0, r1, r2, r3 := w[:n], w[in:][:n], w[2*in:][:n], w[3*in:][:n]
		s0, s1, s2, s3 := b[0], b[1], b[2], b[3]
		for i, xi := range x {
			s0 += r0[i] * xi
			s1 += r1[i] * xi
			s2 += r2[i] * xi
			s3 += r3[i] * xi
		}
		z[0], z[1], z[2], z[3] = s0, s1, s2, s3
		w, b, z = w[4*in:], b[4:], z[4:]
	}
	for o := range z {
		row := w[o*in:][:n]
		sum := b[o]
		for i, xi := range x {
			sum += row[i] * xi
		}
		z[o] = sum
	}
}

// clampNegative is ReLU in place. Only strictly negative values change, so a
// pre-activation of -0 stays -0, as it always has.
func clampNegative(v []float64) {
	for i, s := range v {
		if s < 0 {
			v[i] = 0
		}
	}
}

// inputGrad says which entries of a layer's input gradient the layer below
// reads, and so which ones propagate computes.
type inputGrad int

const (
	// noInputGrad: the network's first layer; nothing reads its dIn.
	noInputGrad inputGrad = iota
	// liveInputGrad: the layer below is ReLU. A zero input is exactly a unit
	// below with z <= 0, which that layer skips, so dIn is computed only at
	// the non-zero inputs.
	liveInputGrad
	// denseInputGrad: the layer below is Identity, whose zero outputs are
	// still live; dIn is computed at every input.
	denseInputGrad
)

// mask writes into delta the gradient w.r.t. the layer's output: dOut at
// the live units and +0 at the dead ones, a ReLU unit being dead (z <= 0)
// exactly when its output y is ±0. It returns the live units, ascending, in
// rows. The layer above leaves its input gradient stale wherever the layer
// below does not read it (propagate), which is at the dead units; the mask is
// what lets accumulate sum delta over every unit. Both are written without a
// branch on the data: half the units of a ReLU layer are dead, at random, and
// a branch would mispredict on them.
func (d *Dense) mask(y, dOut, delta []float64, rows []int) []int {
	dOut, delta, rows = dOut[:len(y)], delta[:len(y)], rows[:len(y)]
	if d.Act != ReLU {
		copy(delta, dOut)
		for o := range rows {
			rows[o] = o
		}
		return rows
	}
	n := 0
	for o, yo := range y {
		live := nonZero(yo)
		rows[n] = o
		n += live
		delta[o] = math.Float64frombits(math.Float64bits(dOut[o]) & -uint64(live))
	}
	return rows[:n]
}

// propagate writes into dIn the gradient w.r.t. the layer's input x, given
// its masked output gradient delta and the live rows mask returned, at the
// entries grad names; the rest of dIn is stale. dIn[i] sums delta[o]·w[o][i]
// over the live rows, ascending, left to right from +0: the bits of the
// row-at-a-time loop kept in reference_test.go. The Go loop takes the rows
// four at a time, so each dIn[i] is loaded and stored once per four rows, and
// visits only the inputs grad names; the AVX2 kernel (kernel.go) computes
// every input, and nobody reads the extra ones.
func (d *Dense) propagate(x, delta, dIn []float64, rows, cols []int, grad inputGrad) {
	delta, dIn = delta[:d.Out], dIn[:d.In]
	if useAVX2 {
		inputGradAVX2(d.W[:d.Out*d.In], delta, dIn, rows)
		return
	}
	all := 0
	if grad == denseInputGrad {
		all = 1
	}
	n := 0
	for i, xi := range x {
		cols[n] = i
		n += nonZero(xi) | all
	}
	cols = cols[:n]
	for _, i := range cols {
		dIn[i] = 0
	}
	in := d.In
	for len(rows) >= 4 {
		o0, o1, o2, o3 := rows[0], rows[1], rows[2], rows[3]
		g0, g1, g2, g3 := delta[o0], delta[o1], delta[o2], delta[o3]
		w0, w1, w2, w3 := d.W[o0*in:][:in], d.W[o1*in:][:in], d.W[o2*in:][:in], d.W[o3*in:][:in]
		for _, i := range cols {
			dIn[i] = dIn[i] + g0*w0[i] + g1*w1[i] + g2*w2[i] + g3*w3[i]
		}
		rows = rows[4:]
	}
	for _, o := range rows {
		g := delta[o]
		w := d.W[o*in:][:in]
		for _, i := range cols {
			dIn[i] += g * w[i]
		}
	}
}

// accumulate adds n samples' gradients to rows [lo, hi) of gradW and gradB
// and scales the sums: gradB[o] = (gradB[o] + Σ_s δ_s[o])·scale and
// gradW[o][i] = (gradW[o][i] + Σ_s δ_s[o]·x_s[i])·scale, each sum in sample
// order onto what the entry held, as one add after another. delta holds the
// samples' masked output gradients (mask) and y their outputs, n rows of Out
// each; x their inputs, n rows of In. Trainer.Fit passes entries of +0 and
// 1/batch; the tests' per-sample Network.Backward its accumulated gradients
// and 1, by which a product is the same bits.
//
// The sums are dense, every row at every input, and give the bits of the
// reference loop (every live row at every input) whenever x is finite: a
// dead row's δ is +0, so it adds δ·x = ±0, and a sum that starts from +0
// (Fit clears the rows it sums) is never −0 (round-to-nearest gives −0 only
// for −0 + −0), so adding ±0 to it changes nothing. Where some x is ±Inf or NaN, 0·x is NaN:
// the caller passes dense false, and each sample adds to its live rows only.
func (d *Dense) accumulate(delta, x, y []float64, n, lo, hi int, dense bool, scale float64) {
	if n == 0 || lo == hi {
		return
	}
	in, out := d.In, d.Out
	gb, gw := d.gradB[lo:hi], d.gradW[lo*in:hi*in]
	delta, x = delta[lo:(n-1)*out+hi], x[:n*in]
	switch {
	case !dense:
		for s := 0; s < n; s++ {
			xs := x[s*in:][:in]
			for r := range hi - lo {
				if d.Act == ReLU && nonZero(y[s*out+lo+r]) == 0 {
					continue
				}
				g, row := delta[s*out+r], gw[r*in:][:in]
				for i, xi := range xs {
					row[i] += g * xi
				}
			}
		}
		for i := range gw {
			gw[i] *= scale
		}
	case useAVX2:
		gradAVX2(gw, delta, x, in, out, n, scale)
	default:
		sumRows(gw, delta, x, in, out, n, scale)
	}
	for s := 0; s < n; s++ {
		// The sum is the add's first operand, as in the reference loop: when
		// both are NaN, x86 returns the first one's payload.
		g := delta[s*out:][:len(gb)]
		for o, b := range gb {
			gb[o] = b + g[o]
		}
	}
	for o := range gb {
		gb[o] *= scale
	}
}

// sumRows is accumulate's dense sum where the AVX2 kernel does not run. For
// each row of gw, inputs go four at a time, their four sums held in
// registers while the samples stream past.
func sumRows(gw, delta, x []float64, in, out, n int, scale float64) {
	for r := 0; r*in < len(gw); r++ {
		row := gw[r*in:][:in]
		i := 0
		for ; i+4 <= in; i += 4 {
			s0, s1, s2, s3 := row[i], row[i+1], row[i+2], row[i+3]
			for s := 0; s < n; s++ {
				g, xs := delta[s*out+r], x[s*in+i:][:4]
				s0 += g * xs[0]
				s1 += g * xs[1]
				s2 += g * xs[2]
				s3 += g * xs[3]
			}
			row[i], row[i+1], row[i+2], row[i+3] = s0*scale, s1*scale, s2*scale, s3*scale
		}
		for ; i < in; i++ {
			sum := row[i]
			for s := 0; s < n; s++ {
				sum += delta[s*out+r] * x[s*in+i]
			}
			row[i] = sum * scale
		}
	}
}

// finite reports whether every entry of v is finite: x−x is NaN exactly
// where x is ±Inf or NaN.
func finite(v []float64) bool {
	s := 0.0
	for _, x := range v {
		s += x - x
	}
	return s == 0
}

// nonZero is 1 when v is neither +0 nor −0 (NaN counts as non-zero) and 0
// when it is, computed on the bits without a branch.
func nonZero(v float64) int {
	b := math.Float64bits(v) << 1
	return int((b | -b) >> 63)
}

// Network is a feed-forward stack of dense layers.
type Network struct {
	Layers []*Dense
}

// NewMLP builds a multi-layer perceptron with relu hidden layers and an
// identity output layer: in -> hidden[0] -> ... -> out.
func NewMLP(in int, hidden []int, out int, seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	var layers []*Dense
	prev := in
	for _, h := range hidden {
		layers = append(layers, NewDense(prev, h, ReLU, rng))
		prev = h
	}
	layers = append(layers, NewDense(prev, out, Identity, rng))
	return &Network{Layers: layers}
}

// inputGrad is what layer i's propagate must compute of its input gradient:
// the part the layer below it reads.
func (n *Network) inputGrad(i int) inputGrad {
	switch {
	case i == 0:
		return noInputGrad
	case n.Layers[i-1].Act == ReLU:
		return liveInputGrad
	}
	return denseInputGrad
}

// NumParams returns the total number of trainable parameters.
func (n *Network) NumParams() int {
	p := 0
	for _, l := range n.Layers {
		p += len(l.W) + len(l.B)
	}
	return p
}

// InDim returns the network's input dimension.
func (n *Network) InDim() int { return n.Layers[0].In }

// OutDim returns the network's output dimension.
func (n *Network) OutDim() int { return n.Layers[len(n.Layers)-1].Out }

// String summarizes the architecture.
func (n *Network) String() string {
	s := fmt.Sprintf("MLP(%d", n.InDim())
	for _, l := range n.Layers {
		s += fmt.Sprintf("->%d", l.Out)
	}
	return s + ")"
}

// Softmax writes the softmax of logits into out (which may alias logits),
// computed stably by subtracting the max logit. The exponentials go four at
// a time with math.Exp's bits (simd.Exp); the sum stays in order.
func Softmax(logits, out []float64) {
	max := logits[0]
	for _, v := range logits[1:] {
		if v > max {
			max = v
		}
	}
	out = out[:len(logits)]
	for i, v := range logits {
		out[i] = v - max
	}
	simd.Exp(out)
	sum := 0.0
	for _, e := range out {
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
}

// Argmax returns the index of the largest element: the first one, where
// several compare equal (+0 and −0 do). A NaN is greater than nothing, so it
// is kept only where it stands first.
func Argmax(v []float64) int {
	best := 0
	for i, x := range v[1:] {
		if x > v[best] {
			best = i + 1
		}
	}
	return best
}
