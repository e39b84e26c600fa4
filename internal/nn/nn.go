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
}

// NewDense creates a layer with He-uniform initialization (appropriate for
// relu) from the given RNG.
func NewDense(in, out int, act Activation, rng *rand.Rand) *Dense {
	d := &Dense{
		In: in, Out: out, Act: act,
		W: make([]float64, out*in), B: make([]float64, out),
		z: make([]float64, out), out: make([]float64, out),
		in:    make([]float64, in),
		gradW: make([]float64, out*in), gradB: make([]float64, out),
		dIn: make([]float64, in),
	}
	limit := math.Sqrt(6.0 / float64(in))
	for i := range d.W {
		d.W[i] = (rng.Float64()*2 - 1) * limit
	}
	return d
}

// Forward computes the layer output for input x, retaining the buffers
// needed by a subsequent Backward call. The returned slice is owned by the
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

// Backward accumulates parameter gradients for the last Forward given the
// loss gradient dOut w.r.t. this layer's output, and returns the gradient
// w.r.t. the layer's input (owned by the layer).
func (d *Dense) Backward(dOut []float64) []float64 {
	for i := range d.dIn {
		d.dIn[i] = 0
	}
	for o := 0; o < d.Out; o++ {
		g := dOut[o]
		if d.Act == ReLU && d.z[o] <= 0 {
			continue
		}
		d.gradB[o] += g
		row := d.W[o*d.In : (o+1)*d.In]
		gw := d.gradW[o*d.In : (o+1)*d.In]
		for i := 0; i < d.In; i++ {
			gw[i] += g * d.in[i]
			d.dIn[i] += g * row[i]
		}
	}
	return d.dIn
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

// Backward propagates the output-gradient through all layers, accumulating
// parameter gradients.
func (n *Network) Backward(dOut []float64) {
	cur := dOut
	for i := len(n.Layers) - 1; i >= 0; i-- {
		cur = n.Layers[i].Backward(cur)
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
