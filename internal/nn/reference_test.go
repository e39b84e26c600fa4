package nn

import (
	"math"
	"math/rand"
	"testing"
)

// pass is the tests' per-sample forward and backward chain over a network,
// with the scratch it needs: each layer's pre-activation, output, input copy,
// masked output gradient, input gradient and row lists. Trainer.Fit keeps
// the same per slot of a batch; Infer needs none of it.
type pass struct {
	net    *Network
	layers []layerPass
	dense  []int
}

type layerPass struct {
	z, out, in, delta, dIn []float64
	cols, rows             []int
}

func newPass(n *Network) *pass {
	p := &pass{net: n, layers: make([]layerPass, len(n.Layers))}
	for j, l := range n.Layers {
		p.dense = denseRows(max(len(p.dense), l.In))
		p.layers[j] = layerPass{
			z: make([]float64, l.Out), out: make([]float64, l.Out), in: make([]float64, l.In),
			delta: make([]float64, l.Out), dIn: make([]float64, l.In),
			cols: make([]int, l.In), rows: make([]int, l.Out),
		}
	}
	return p
}

// forward is one layer's pass on x, through a pass of its own.
func forward(d *Dense, x []float64) []float64 {
	return newPass(&Network{Layers: []*Dense{d}}).Forward(x)
}

// Forward runs the network on x, every layer over all of its inputs,
// retaining what Backward reads. The returned slice is the pass's and valid
// until its next Forward.
func (p *pass) Forward(x []float64) []float64 {
	cur := x
	for j, l := range p.net.Layers {
		lp := &p.layers[j]
		l.affine(l.wt, cur, lp.z, p.dense[:l.In])
		copy(lp.in, cur)
		copy(lp.out, lp.z)
		if l.Act == ReLU {
			clampNegative(lp.out)
		}
		cur = lp.out
	}
	return cur
}

// Backward propagates the output-gradient of the last Forward through all
// layers, accumulating parameter gradients: the per-sample backward pass,
// through the kernels Trainer.Fit runs a batch at a time (mask, accumulate,
// propagate). Each layer computes only the part of its input gradient the
// layer below reads.
func (p *pass) Backward(dOut []float64) {
	cur := dOut
	for i := len(p.net.Layers) - 1; i >= 0; i-- {
		l, lp := p.net.Layers[i], &p.layers[i]
		rows := l.mask(lp.out, cur, lp.delta, lp.rows)
		l.accumulate(lp.delta, lp.in, lp.out, 1, 0, l.Out, finite(lp.in), 1)
		if i > 0 {
			l.propagate(lp.in, lp.delta, lp.dIn, rows, lp.cols, p.net.inputGrad(i))
			cur = lp.dIn
		}
	}
}

// ZeroGrad clears all accumulated gradients.
func (n *Network) ZeroGrad() {
	for _, l := range n.Layers {
		clear(l.gradW)
		clear(l.gradB)
	}
}

// refBackward is Dense.Backward as it was before the sparse kernel: every
// live row, every input, one row at a time. backward must reproduce its
// gradW and gradB bits, and its dIn wherever the layer below reads it.
func refBackward(d *Dense, lp *layerPass, dOut []float64) []float64 {
	for i := range lp.dIn {
		lp.dIn[i] = 0
	}
	for o := 0; o < d.Out; o++ {
		g := dOut[o]
		if d.Act == ReLU && lp.z[o] <= 0 {
			continue
		}
		d.gradB[o] += g
		row := d.W[o*d.In : (o+1)*d.In]
		gw := d.gradW[o*d.In : (o+1)*d.In]
		for i := 0; i < d.In; i++ {
			gw[i] += g * lp.in[i]
			lp.dIn[i] += g * row[i]
		}
	}
	return lp.dIn
}

// refNetBackward is pass.Backward over refBackward.
func refNetBackward(p *pass, dOut []float64) {
	cur := dOut
	for i := len(p.net.Layers) - 1; i >= 0; i-- {
		cur = refBackward(p.net.Layers[i], &p.layers[i], cur)
	}
}

// cloneNet copies the weights into a network of its own.
func cloneNet(n *Network) *Network {
	c := &Network{}
	for _, l := range n.Layers {
		w := append([]float64(nil), l.W...)
		b := append([]float64(nil), l.B...)
		c.Layers = append(c.Layers, newLayer(l.In, l.Out, l.Act, w, b))
	}
	return c
}

// readByBelow reports whether the layer under layer i reads entry j of
// layer i's input gradient in p's last pass: always under Identity, at live
// units under ReLU.
func readByBelow(p *pass, i, j int) bool {
	return p.net.Layers[i-1].Act != ReLU || !(p.layers[i-1].z[j] <= 0)
}

// backwardCase is one network and the samples run through it between two
// ZeroGrad calls.
type backwardCase struct {
	net *Network
	xs  [][]float64
	dys [][]float64 // loss gradient per sample; nil entries use loss
	ys  []float64
	mse bool
}

// checkBackward runs c on a clone of the network under each kernel path
// (eachKernel) and on another clone under the reference loop, and compares,
// bit for bit, each sample's input gradients where they are read and the
// accumulated parameter gradients at the end. With finite gradients
// everything must match. A non-finite loss gradient only has to stay
// non-finite: gradB matches, and every layer whose reference gradients went
// non-finite has a non-finite gradient on the kernel's path too.
func checkBackward(t *testing.T, c backwardCase) {
	t.Helper()
	eachKernel(func(path string) {
		t.Helper()
		checkBackwardOn(t, path, c)
	})
}

func checkBackwardOn(t *testing.T, path string, c backwardCase) {
	t.Helper()
	net, ref := cloneNet(c.net), cloneNet(c.net)
	pn, pr := newPass(net), newPass(ref)
	var loss Loss = &CrossEntropy{}
	if c.mse {
		loss = MSE{}
	}
	dOut := make([]float64, net.OutDim())
	net.ZeroGrad()
	ref.ZeroGrad()
	finite := true
	for k, x := range c.xs {
		// The clone has the same weights, so its Forward has the same bits and
		// one loss gradient serves both passes (neither writes dOut).
		out := pn.Forward(x)
		pr.Forward(x)
		if c.dys != nil && c.dys[k] != nil {
			copy(dOut, c.dys[k])
		} else {
			loss.LossAndGrad(out, c.ys[k], dOut)
		}
		finite = finite && !nonFinite(dOut)
		pn.Backward(dOut)
		refNetBackward(pr, dOut)
		if !finite {
			continue
		}
		for i := 1; i < len(net.Layers); i++ {
			got, want := pn.layers[i].dIn, pr.layers[i].dIn
			for j := range want {
				if readByBelow(pn, i, j) && math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%s %v sample %d layer %d dIn[%d]: %v, reference %v", path, net, k, i, j, got[j], want[j])
				}
			}
		}
	}
	for i, l := range net.Layers {
		r := ref.Layers[i]
		for j := range r.gradB {
			if math.Float64bits(l.gradB[j]) != math.Float64bits(r.gradB[j]) {
				t.Fatalf("%s %v layer %d gradB[%d]: %v, reference %v", path, net, i, j, l.gradB[j], r.gradB[j])
			}
		}
		if finite {
			for j := range r.gradW {
				if math.Float64bits(l.gradW[j]) != math.Float64bits(r.gradW[j]) {
					t.Fatalf("%s %v layer %d gradW[%d]: %v, reference %v", path, net, i, j, l.gradW[j], r.gradW[j])
				}
			}
		} else if nonFinite(r.gradW, r.gradB) && !nonFinite(l.gradW, l.gradB) {
			t.Fatalf("%s %v layer %d: the reference diverged and backward did not", path, net, i)
		}
	}
}

func nonFinite(vss ...[]float64) bool {
	for _, vs := range vss {
		for _, v := range vs {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return true
			}
		}
	}
	return false
}

var negZero = math.Copysign(0, -1)

// randomCase draws a net of the given shape with random biases, so some
// ReLU units are dead for some samples, and samples whose inputs are exact
// +0 or −0 with probability zeros. dead names a hidden layer whose units are
// all dead (−1 for none).
func randomCase(rng *rand.Rand, in int, hidden []int, out int, mse bool, zeros float64, dead, samples int) backwardCase {
	net := NewMLP(in, hidden, out, rng.Int63())
	for _, l := range net.Layers {
		for o := range l.B {
			l.B[o] = rng.NormFloat64() * 0.5
		}
	}
	if dead >= 0 {
		for o := range net.Layers[dead].B {
			net.Layers[dead].B[o] = -1e6
		}
	}
	c := backwardCase{net: net, mse: mse}
	for range samples {
		x := make([]float64, in)
		for i := range x {
			switch r := rng.Float64(); {
			case r < zeros/2:
				x[i] = 0
			case r < zeros:
				x[i] = negZero
			default:
				x[i] = rng.NormFloat64()
			}
		}
		c.xs = append(c.xs, x)
		if mse {
			c.ys = append(c.ys, rng.NormFloat64())
		} else {
			c.ys = append(c.ys, float64(rng.Intn(out)))
		}
	}
	return c
}

// backwardWidths are the hidden widths the backward tests draw from: the
// Go loop's four-row block and tail, and for the AVX2 kernel's 16-input
// blocks a full block alone, a full block and a partial one, and three full.
var backwardWidths = []int{1, 2, 3, 4, 5, 6, 7, 16, 17, 33, 48}

// TestBackwardMatchesReference holds backward to refBackward over random MLPs
// with one to three hidden ReLU layers, both losses, the classifier's output
// widths, exact ±0 inputs, all-dead layers and several samples per
// accumulation; then over the corners a random draw misses.
func TestBackwardMatchesReference(t *testing.T) {
	if !hasAVX2 {
		t.Log(noAVX2)
	}
	rng := rand.New(rand.NewSource(17))
	for depth := 1; depth <= 3; depth++ {
		for _, out := range []int{1, 3, 61} {
			for _, mse := range []bool{false, true} {
				for trial := range 12 {
					hidden := make([]int, depth)
					for i := range hidden {
						hidden[i] = backwardWidths[rng.Intn(len(backwardWidths))]
					}
					dead := -1
					if trial%4 == 3 {
						dead = rng.Intn(depth)
					}
					in := 1 + rng.Intn(15)
					zeros := []float64{0, 0.3, 0.9}[trial%3]
					checkBackward(t, randomCase(rng, in, hidden, out, mse, zeros, dead, 1+rng.Intn(5)))
				}
			}
		}
	}

	t.Run("negative zero unit", func(t *testing.T) {
		// A hidden row of +0 weights with a −0 bias, fed −0 inputs, sums to
		// −0: a ReLU output of −0, which the layer above must treat like +0.
		c := randomCase(rng, 4, []int{6, 5}, 3, false, 0, -1, 0)
		h := c.net.Layers[0]
		for i := 0; i < h.In; i++ {
			h.W[2*h.In+i] = 0
		}
		h.B[2] = negZero
		h.transposeW()
		c.xs = [][]float64{{negZero, negZero, negZero, negZero}, {1, -2, negZero, 0.5}}
		c.ys = []float64{0, 2}
		checkBackward(t, c)
		if got := forward(h, c.xs[0])[2]; math.Float64bits(got) != math.Float64bits(negZero) {
			t.Fatalf("the rigged unit produced %v, not -0", got)
		}
	})

	t.Run("identity under a layer", func(t *testing.T) {
		// An Identity hidden layer under a ReLU layer: its zero outputs are
		// live, so the upper layer's input gradient must be dense there.
		r := rand.New(rand.NewSource(3))
		net := &Network{Layers: []*Dense{
			NewDense(5, 6, Identity, r),
			NewDense(6, 7, ReLU, r),
			NewDense(7, 3, Identity, r),
		}}
		for i := 0; i < 5; i++ {
			net.Layers[0].W[1*5+i] = 0 // unit 1 of the Identity layer outputs 0
			net.Layers[0].W[4*5+i] = 0 // and unit 4 outputs −0 (−0 bias, −0 products)
		}
		net.Layers[0].B[1], net.Layers[0].B[4] = 0, negZero
		c := backwardCase{net: net, ys: []float64{0, 1, 2}, xs: [][]float64{
			{0.3, -1, 2, 0.1, 0.7}, {negZero, negZero, negZero, negZero, negZero}, {1, 0, -1, negZero, 2},
		}}
		checkBackward(t, c)
	})

	t.Run("non-finite gradient", func(t *testing.T) {
		c := randomCase(rng, 6, []int{7, 48}, 3, false, 0.5, -1, 3)
		c.dys = [][]float64{nil, {math.Inf(1), 0.25, -0.25}, {math.NaN(), 0, 0}}
		checkBackward(t, c)
	})
}

func FuzzBackwardEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(2), false, uint8(30), uint8(0))
	f.Add(int64(7), uint8(0), uint8(1), true, uint8(100), uint8(1))
	f.Add(int64(-3), uint8(1), uint8(0), false, uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, depth, outSel uint8, mse bool, zeroPct, variant uint8) {
		rng := rand.New(rand.NewSource(seed))
		hidden := make([]int, 1+int(depth)%3)
		for i := range hidden {
			hidden[i] = backwardWidths[rng.Intn(len(backwardWidths))]
		}
		out := []int{1, 3, 61}[int(outSel)%3]
		dead := -1
		if variant%4 == 1 {
			dead = rng.Intn(len(hidden))
		}
		c := randomCase(rng, 1+rng.Intn(15), hidden, out, mse, float64(zeroPct%101)/100, dead, 1+rng.Intn(5))
		if variant%4 == 2 {
			// An Identity hidden layer under the next one.
			c.net.Layers[rng.Intn(len(hidden))].Act = Identity
		}
		checkBackward(t, c)
	})
}

// refFit is Trainer.Fit as it was before the stages: one loop over the whole
// network, each sample's forward, loss and backward in turn, then every
// group stepped through t.Opt after one BeginStep per batch. Fit must give
// its weights, loss and optimizer state bit for bit at any Workers.
func refFit(t *Trainer, X [][]float64, Y []float64) float64 {
	rng := rand.New(rand.NewSource(t.Seed))
	order := make([]int, len(X))
	for i := range order {
		order[i] = i
	}
	dOut := make([]float64, t.Net.OutDim())
	p := newPass(t.Net)
	finalLoss := 0.0
	for epoch := 0; epoch < t.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss := 0.0
		for start := 0; start < len(order); start += t.BatchSize {
			end := min(start+t.BatchSize, len(order))
			t.Net.ZeroGrad()
			for _, idx := range order[start:end] {
				out := p.Forward(X[idx])
				epochLoss += t.Loss.LossAndGrad(out, Y[idx], dOut)
				p.Backward(dOut)
			}
			scale := 1.0 / float64(end-start)
			t.Opt.BeginStep()
			for li, l := range t.Net.Layers {
				for i := range l.gradW {
					l.gradW[i] *= scale
					if t.WeightDecay > 0 {
						l.gradW[i] += t.WeightDecay * l.W[i]
					}
				}
				for i := range l.gradB {
					l.gradB[i] *= scale
				}
				t.Opt.Step(2*li, l.W, l.gradW)
				t.Opt.Step(2*li+1, l.B, l.gradB)
				l.transposeW()
			}
		}
		finalLoss = epochLoss / float64(len(order))
		if t.OnEpoch != nil && !t.OnEpoch(epoch, finalLoss) {
			break
		}
	}
	return finalLoss
}

// splittable reads a package optimizer's state, its step count and moments,
// for the Fit tests to compare.
type splittable interface{ own() *state }

func (s *state) own() *state { return s }
