package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// Loss computes the scalar loss and the gradient of the loss w.r.t. the
// network's raw output for one sample. The gradient is written into dOut.
type Loss interface {
	// LossAndGrad returns the loss for (output, target) and fills dOut.
	// target's meaning depends on the loss (class index or regression value).
	LossAndGrad(output []float64, target float64, dOut []float64) float64
}

// CrossEntropy is softmax + sparse categorical cross-entropy: targets are
// class indices; the network's output layer produces raw logits.
type CrossEntropy struct {
	probs []float64
}

// LossAndGrad implements Loss.
func (c *CrossEntropy) LossAndGrad(output []float64, target float64, dOut []float64) float64 {
	if cap(c.probs) < len(output) {
		c.probs = make([]float64, len(output))
	}
	p := c.probs[:len(output)]
	Softmax(output, p)
	cls := int(target)
	if cls < 0 {
		cls = 0
	}
	if cls >= len(output) {
		cls = len(output) - 1
	}
	for i := range dOut {
		dOut[i] = p[i]
	}
	dOut[cls] -= 1
	const tiny = 1e-12
	return -math.Log(p[cls] + tiny)
}

// MSE is mean squared error for single-output regression networks.
type MSE struct{}

// LossAndGrad implements Loss.
func (MSE) LossAndGrad(output []float64, target float64, dOut []float64) float64 {
	d := output[0] - target
	dOut[0] = 2 * d
	for i := 1; i < len(dOut); i++ {
		dOut[i] = 0
	}
	return d * d
}

// steppable lets the trainer advance an optimizer's step counter: once per
// batch, on each stage's part of it.
type steppable interface {
	BeginStep()
}

// Trainer runs mini-batch gradient training of a Network.
type Trainer struct {
	Net       *Network
	Loss      Loss
	Opt       Optimizer
	BatchSize int
	Epochs    int
	Seed      int64
	// WeightDecay adds L2 regularization: the loss gradient gains
	// WeightDecay·w per weight (biases are not decayed).
	WeightDecay float64
	// Workers follows par.Run: at most 1 trains on the caller's goroutine,
	// 2 or more run the network's two stages on two goroutines. The weights
	// and the loss are the same bits for any value.
	Workers int

	// OnEpoch, if set, is called on the caller's goroutine after each epoch
	// with the epoch index and mean training loss; returning false stops
	// training early.
	OnEpoch func(epoch int, loss float64) bool
}

// Fit trains the network on inputs X and targets Y (class index or
// regression value per sample). It returns the mean loss of the final epoch.
//
// Training is a two-stage pipeline over the layers (DESIGN.md §10): stage a
// owns layers [0, s) and stage b layers [s, L) and the loss, each with the
// weights, gradients and optimizer groups of its layers. Per sample, a
// forwards into the sample's slot and publishes the boundary activation; b
// forwards, takes the loss, runs its backward and returns the boundary
// gradient in the slot; a runs its backward from it. Each stage steps its own
// groups after its last backward of the batch. A one-layer network, or an
// optimizer of another package, is one stage (s = 0).
func (t *Trainer) Fit(X [][]float64, Y []float64) (float64, error) {
	if len(X) == 0 || len(X) != len(Y) {
		return 0, errors.New("nn: bad training set")
	}
	for _, x := range X {
		if len(x) != t.Net.InDim() {
			return 0, fmt.Errorf("nn: a %d-input network given a %d-wide sample", t.Net.InDim(), len(x))
		}
	}
	if t.BatchSize <= 0 {
		t.BatchSize = 32
	}
	if t.Epochs <= 0 {
		t.Epochs = 1
	}
	p := newPipeline(t, X, Y)
	defer p.join()
	if t.Workers <= 1 || p.s == 0 {
		p.run(true, true)
		return p.loss, nil
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.run(true, false)
	}()
	defer wg.Wait()
	defer p.stop.Store(true)
	p.run(false, true)
	return p.loss, nil
}

// stage is a run of consecutive layers that one goroutine owns for a whole
// Fit: their weights, gradients and optimizer groups (2·i for layer i's W,
// 2·i+1 for its B).
type stage struct {
	layers []*Dense
	lo     int // the network index of layers[0]
	opt    Optimizer
}

func (s *stage) zeroGrad() {
	for _, l := range s.layers {
		l.zeroGrad()
	}
}

// step averages the batch's gradients, adds the weight decay and steps the
// stage's groups.
func (s *stage) step(size int, decay float64) {
	if len(s.layers) == 0 {
		return
	}
	scale := 1.0 / float64(size)
	if st, ok := s.opt.(steppable); ok {
		st.BeginStep()
	}
	for j, l := range s.layers {
		for i := range l.gradW {
			l.gradW[i] *= scale
			if decay > 0 {
				l.gradW[i] += decay * l.W[i]
			}
		}
		for i := range l.gradB {
			l.gradB[i] *= scale
		}
		li := s.lo + j
		s.opt.Step(2*li, l.W, l.gradW)
		s.opt.Step(2*li+1, l.B, l.gradB)
		l.transposeW()
	}
}

// pipeline is one Fit's state. Slot k is the k-th sample of the current
// batch: its index into X, stage a's layer outputs and the boundary
// gradient. The two counters hand samples across, numbered over the whole
// Fit: fwd counts the samples a has forwarded, bwd the boundary gradients b
// has returned. Each is written by one stage and polled by the other, so
// each has a cache line of its own.
type pipeline struct {
	t     *Trainer
	X     [][]float64
	Y     []float64
	s     int // the first layer of stage b
	a, b  stage
	rng   *rand.Rand
	order []int       // stage a's shuffle of the samples
	idx   []int       // slot → sample
	outs  [][]float64 // outs[k*s+j]: layer j's output in slot k
	grads [][]float64 // slot → boundary gradient
	dOut  []float64   // stage b's loss gradient
	loss  float64     // stage b's mean loss over the last epoch

	_    [64]byte
	fwd  atomic.Int64
	_    [56]byte
	bwd  atomic.Int64
	_    [56]byte
	stop atomic.Bool // set when b has finished; a gives up its wait
}

func newPipeline(t *Trainer, X [][]float64, Y []float64) *pipeline {
	layers := t.Net.Layers
	p := &pipeline{t: t, X: X, Y: Y, rng: rand.New(rand.NewSource(t.Seed)),
		order: make([]int, len(X)), dOut: make([]float64, t.Net.OutDim())}
	for i := range p.order {
		p.order[i] = i
	}
	p.b.opt = t.Opt
	if sp, ok := t.Opt.(splittable); ok {
		if p.s = boundary(layers); p.s > 0 {
			st := sp.own()
			p.a.opt = sp.with(st.part(0, 2*p.s))
			p.b.opt = sp.with(st.part(2*p.s, 2*len(layers)))
		}
	}
	p.a.layers, p.b.layers, p.b.lo = layers[:p.s], layers[p.s:], p.s

	slots := min(t.BatchSize, len(X))
	p.idx = make([]int, slots)
	p.outs = make([][]float64, slots*p.s)
	for i := range p.outs {
		p.outs[i] = make([]float64, layers[i%p.s].Out)
	}
	if p.s > 0 {
		p.grads = make([][]float64, slots)
		for k := range p.grads {
			p.grads[k] = make([]float64, layers[p.s].In)
		}
	}
	return p
}

// boundary is the first layer of stage b: the split that best balances the
// two stages, a layer costing 3·In·Out (its forward, weight gradient and
// input gradient) and the last one also 12·Out for the loss. A one-layer
// network has one stage, 0.
func boundary(layers []*Dense) int {
	cost := func(i int) int {
		l := layers[i]
		c := 3 * l.In * l.Out
		if i == len(layers)-1 {
			c += 12 * l.Out
		}
		return c
	}
	total := 0
	for i := range layers {
		total += cost(i)
	}
	best, bestCost, a := 0, total, 0
	for s := 1; s < len(layers); s++ {
		a += cost(s - 1)
		if c := max(a, total-a); c < bestCost {
			best, bestCost = s, c
		}
	}
	return best
}

// join hands the stages' optimizer state back to the trainer's optimizer.
func (p *pipeline) join() {
	if p.s == 0 {
		return
	}
	st, L := p.t.Opt.(splittable).own(), len(p.t.Net.Layers)
	st.absorb(*p.a.opt.(splittable).own(), 0, 2*p.s)
	st.absorb(*p.b.opt.(splittable).own(), 2*p.s, 2*L)
}

// run is the training loop. It does stage a's part of each batch, stage b's,
// or both: a's and b's on two goroutines, or both on one, where a batch is
// a's forwards, then b's samples, then a's backwards. Each stage does its own
// work in sample order whatever the other does, and only reads what the
// other published, so every gradient sums sample by sample as it would in a
// loop over the whole network, and the weights and the loss are that loop's
// bits under either schedule. a starts a batch's forwards only after its own
// step, by when b has read every slot of the last batch; after b stops early,
// a's forwards of a batch b will not take change nothing it keeps.
func (p *pipeline) run(a, b bool) {
	t, n := p.t, len(p.X)
	var seq int64      // samples before this batch
	var fwd, bwd int64 // the last values this goroutine read of the counters
	for epoch := 0; epoch < t.Epochs; epoch++ {
		if a {
			p.rng.Shuffle(n, func(i, j int) { p.order[i], p.order[j] = p.order[j], p.order[i] })
		}
		epochLoss := 0.0
		for start := 0; start < n; start += t.BatchSize {
			size := min(t.BatchSize, n-start)
			if a {
				p.a.zeroGrad()
				for k, i := range p.order[start : start+size] {
					p.forwardA(k, i)
					p.fwd.Store(seq + int64(k) + 1)
				}
			}
			if b {
				p.b.zeroGrad()
				for k := 0; k < size; k++ {
					p.await(&p.fwd, &fwd, seq+int64(k)+1)
					epochLoss += p.sampleB(k)
					p.bwd.Store(seq + int64(k) + 1)
				}
				p.b.step(size, t.WeightDecay)
			}
			if a {
				for k := 0; k < size; k++ {
					if !p.await(&p.bwd, &bwd, seq+int64(k)+1) {
						return
					}
					p.backwardA(k)
				}
				p.a.step(size, t.WeightDecay)
			}
			seq += int64(size)
		}
		if b {
			p.loss = epochLoss / float64(n)
			if t.OnEpoch != nil && !t.OnEpoch(epoch, p.loss) {
				return
			}
		}
	}
}

// spins is how often a stage polls the other's counter before it yields its
// thread between polls. A sample takes stage b a few microseconds, so the
// wait is usually shorter than the spin.
const spins = 1000

// await waits until c reaches v. *seen is the last value the caller read of
// c: while it already covers v, the caller does not touch c's cache line,
// which the other stage is writing. await reports false if b has stopped
// short of v; b advances its counter before it stops, so c is read again
// after stop.
func (p *pipeline) await(c *atomic.Int64, seen *int64, v int64) bool {
	for i := 0; *seen < v; i++ {
		if *seen = c.Load(); *seen >= v {
			break
		}
		if p.stop.Load() {
			*seen = c.Load()
			return *seen >= v
		}
		if i >= spins {
			runtime.Gosched()
		}
	}
	return true
}

// input is layer j's input in slot k: the sample for the first layer, the
// layer below's output in the slot for the rest of stage a's and for b's
// first. A slot keeps no other copy of it.
func (p *pipeline) input(k, j int) []float64 {
	if j == 0 {
		return p.X[p.idx[k]]
	}
	return p.outs[k*p.s+j-1]
}

// forwardA runs sample i through stage a's layers into slot k.
func (p *pipeline) forwardA(k, i int) {
	p.idx[k] = i
	for j, l := range p.a.layers {
		x := p.input(k, j)
		l.forward(x, x, p.outs[k*p.s+j])
	}
}

// sampleB runs slot k's sample through stage b: forward, loss and backward.
// It leaves the boundary gradient in the slot and returns the loss.
func (p *pipeline) sampleB(k int) float64 {
	x := p.input(k, p.s)
	for _, l := range p.b.layers {
		x = l.Forward(x)
	}
	loss := p.t.Loss.LossAndGrad(x, p.Y[p.idx[k]], p.dOut)
	g := p.dOut
	for i := len(p.t.Net.Layers) - 1; i >= p.s; i-- {
		l := p.t.Net.Layers[i]
		g = l.backward(l.in, l.out, g, p.t.Net.inputGrad(i))
	}
	if p.s > 0 {
		copy(p.grads[k], g)
	}
	return loss
}

// backwardA runs stage a's backward for slot k from its boundary gradient.
func (p *pipeline) backwardA(k int) {
	if p.s == 0 {
		return
	}
	g := p.grads[k]
	for j := p.s - 1; j >= 0; j-- {
		g = p.a.layers[j].backward(p.input(k, j), p.outs[k*p.s+j], g, p.t.Net.inputGrad(j))
	}
}

// ClassifyAccuracy evaluates a classifier network: the fraction of samples
// whose argmax prediction is within tol classes of the target class (tol 0
// means exact). This matches the paper's "prediction error happens when the
// predicted bucket differs by more than the threshold" definition.
func ClassifyAccuracy(net *Network, X [][]float64, Y []float64, tol int) float64 {
	if len(X) == 0 {
		return 0
	}
	hits := 0
	for i, x := range X {
		pred := Argmax(net.Forward(x))
		d := pred - int(Y[i])
		if d < 0 {
			d = -d
		}
		if d <= tol {
			hits++
		}
	}
	return float64(hits) / float64(len(X))
}

// RegressAccuracy evaluates a single-output regression network: the fraction
// of samples with |prediction − target| <= tol.
func RegressAccuracy(net *Network, X [][]float64, Y []float64, tol float64) float64 {
	if len(X) == 0 {
		return 0
	}
	hits := 0
	for i, x := range X {
		if math.Abs(net.Forward(x)[0]-Y[i]) <= tol {
			hits++
		}
	}
	return float64(hits) / float64(len(X))
}
