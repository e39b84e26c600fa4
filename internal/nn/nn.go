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

	// Scratch buffers reused across forward/backward passes.
	z     []float64 // pre-activation
	out   []float64 // post-activation
	in    []float64 // copy of input (needed by backward)
	gradW []float64
	gradB []float64
	dIn   []float64
	cols  []int // input indices backward visits (len In)
	rows  []int // live units backward visits (len Out)
}

// newLayer wraps weights w (out×in, row-major) and biases b in a layer with
// all of its training scratch. NewDense and Load both build layers here, so a
// loaded network trains exactly like the one that was saved.
func newLayer(in, out int, act Activation, w, b []float64) *Dense {
	return &Dense{
		In: in, Out: out, Act: act, W: w, B: b,
		z: make([]float64, out), out: make([]float64, out),
		in:    make([]float64, in),
		gradW: make([]float64, out*in), gradB: make([]float64, out),
		dIn:  make([]float64, in),
		cols: make([]int, in), rows: make([]int, out),
	}
}

// NewDense creates a layer with He-uniform initialization (appropriate for
// relu) from the given RNG.
func NewDense(in, out int, act Activation, rng *rand.Rand) *Dense {
	d := newLayer(in, out, act, make([]float64, out*in), make([]float64, out))
	limit := math.Sqrt(6.0 / float64(in))
	for i := range d.W {
		d.W[i] = (rng.Float64()*2 - 1) * limit
	}
	return d
}

// Forward computes the layer output for input x, retaining the buffers
// needed by a subsequent Network.Backward. The returned slice is owned by the
// layer and valid until the next Forward.
func (d *Dense) Forward(x []float64) []float64 {
	copy(d.in, x)
	affineRows(d.W, d.B, d.In, x, d.z)
	copy(d.out, d.z)
	if d.Act == ReLU {
		clampNegative(d.out)
	}
	return d.out
}

// affineRows writes z[o] = b[o] + Σ_i w[o·in+i]·x[i] for every row o of the
// row-major matrix w: the one multiply-accumulate kernel under Forward and
// Infer. A single output is one chain of dependent adds, so a row at a time
// runs at floating-point add latency; four rows per pass keep four
// independent chains in flight over one read of x, with a row-at-a-time tail
// for the last len(z) % 4. Each output's own sum keeps its order (bias first,
// then the products by ascending i), so the result is the row-at-a-time
// loop's to the last bit: the trained weights and every fingerprint
// downstream depend on that. The block loop advances by reslicing w, b and z
// rather than by an index: with an index and four row slices live the
// compiler runs out of registers and spills the inner loop's counter.
//
//gemini:hotpath
func affineRows(w, b []float64, in int, x, z []float64) {
	if len(x) > in {
		panic("nn: input wider than the layer")
	}
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
//
//gemini:hotpath
func clampNegative(v []float64) {
	for i, s := range v {
		if s < 0 {
			v[i] = 0
		}
	}
}

// inputGrad says which entries of a layer's input gradient the layer below
// reads, and so which ones backward computes.
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

// backward accumulates parameter gradients for the last Forward given the
// loss gradient dOut w.r.t. this layer's output, and returns the gradient
// w.r.t. the layer's input (owned by the layer) at the entries grad names;
// the rest of the returned slice is stale.
//
// Its bits are those of the row-at-a-time loop kept in reference_test.go,
// whenever the gradients are finite:
//   - A zero input adds g·(±0) = ±0 to gradW. Starting from ZeroGrad's +0, a
//     sum is never −0 (round-to-nearest gives −0 only for −0 + −0), and
//     adding ±0 to anything else changes nothing, so gradW visits only the
//     non-zero inputs. Under denseInputGrad it visits all of them anyway.
//   - dIn is skipped where grad says nobody reads it.
//   - Rows go four at a time, so each x[i] is read and each dIn[i] loaded and
//     stored once per four rows. dIn's sum keeps ascending row order, left to
//     right, and starts from +0 as before.
//
//gemini:hotpath
func (d *Dense) backward(dOut []float64, grad inputGrad) []float64 {
	// Both lists are built without a branch on the data: every index is
	// written and the count advances past the kept ones. Half the units of a
	// ReLU layer are dead, at random, and a branch would mispredict on them.
	// A ReLU unit is dead (z <= 0) exactly when its output is ±0.
	all := 0
	if d.Act != ReLU {
		all = 1
	}
	rows, n := d.rows, 0
	for o, y := range d.out {
		rows[n] = o
		n += nonZero(y) | all
	}
	rows = rows[:n]
	all = 0
	if grad == denseInputGrad {
		all = 1
	}
	x := d.in
	cols, n := d.cols, 0
	for i, xi := range x {
		cols[n] = i
		n += nonZero(xi) | all
	}
	cols = cols[:n]
	var dIn []float64
	if grad != noInputGrad {
		dIn = d.dIn
		for _, i := range cols {
			dIn[i] = 0
		}
	}

	in := d.In
	for len(rows) >= 4 {
		o0, o1, o2, o3 := rows[0], rows[1], rows[2], rows[3]
		g0, g1, g2, g3 := dOut[o0], dOut[o1], dOut[o2], dOut[o3]
		d.gradB[o0] += g0
		d.gradB[o1] += g1
		d.gradB[o2] += g2
		d.gradB[o3] += g3
		gw0, gw1, gw2, gw3 := d.gradW[o0*in:][:in], d.gradW[o1*in:][:in], d.gradW[o2*in:][:in], d.gradW[o3*in:][:in]
		for _, i := range cols {
			xi := x[i]
			gw0[i] += g0 * xi
			gw1[i] += g1 * xi
			gw2[i] += g2 * xi
			gw3[i] += g3 * xi
		}
		if dIn != nil {
			w0, w1, w2, w3 := d.W[o0*in:][:in], d.W[o1*in:][:in], d.W[o2*in:][:in], d.W[o3*in:][:in]
			for _, i := range cols {
				dIn[i] = dIn[i] + g0*w0[i] + g1*w1[i] + g2*w2[i] + g3*w3[i]
			}
		}
		rows = rows[4:]
	}
	for _, o := range rows {
		g := dOut[o]
		d.gradB[o] += g
		gw := d.gradW[o*in:][:in]
		for _, i := range cols {
			gw[i] += g * x[i]
		}
		if dIn != nil {
			w := d.W[o*in:][:in]
			for _, i := range cols {
				dIn[i] += g * w[i]
			}
		}
	}
	return d.dIn
}

// nonZero is 1 when v is neither +0 nor −0 (NaN counts as non-zero) and 0
// when it is, computed on the bits without a branch.
//
//gemini:hotpath
func nonZero(v float64) int {
	b := math.Float64bits(v) << 1
	return int((b | -b) >> 63)
}

// zeroGrad clears accumulated gradients.
func (d *Dense) zeroGrad() {
	for i := range d.gradW {
		d.gradW[i] = 0
	}
	for i := range d.gradB {
		d.gradB[i] = 0
	}
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

// Forward runs the network on x; the returned slice is owned by the last
// layer and valid until the next Forward.
func (n *Network) Forward(x []float64) []float64 {
	cur := x
	for _, l := range n.Layers {
		cur = l.Forward(cur)
	}
	return cur
}

// Backward propagates the output-gradient of the last Forward through all
// layers, accumulating parameter gradients. Each layer computes only the part
// of its input gradient the layer below reads.
func (n *Network) Backward(dOut []float64) {
	cur := dOut
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad := denseInputGrad
		switch {
		case i == 0:
			grad = noInputGrad
		case n.Layers[i-1].Act == ReLU:
			grad = liveInputGrad
		}
		cur = n.Layers[i].backward(cur, grad)
	}
}

// ZeroGrad clears all accumulated gradients.
func (n *Network) ZeroGrad() {
	for _, l := range n.Layers {
		l.zeroGrad()
	}
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
// computed stably by subtracting the max logit.
func Softmax(logits, out []float64) {
	max := logits[0]
	for _, v := range logits[1:] {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range logits {
		e := math.Exp(v - max)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
}

// Argmax returns the index of the largest element.
func Argmax(v []float64) int {
	best := 0
	for i, x := range v[1:] {
		if x > v[best] {
			best = i + 1
		}
	}
	return best
}
