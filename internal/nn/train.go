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
// Trainer.Fit calls it from each of its workers at once; the package's
// losses keep no state.
type Loss interface {
	// LossAndGrad returns the loss for (output, target) and fills dOut.
	// target's meaning depends on the loss (class index or regression value).
	LossAndGrad(output []float64, target float64, dOut []float64) float64
}

// CrossEntropy is softmax + sparse categorical cross-entropy: targets are
// class indices; the network's output layer produces raw logits.
type CrossEntropy struct{}

// LossAndGrad implements Loss. The probabilities are computed in dOut, which
// then becomes their gradient.
func (c *CrossEntropy) LossAndGrad(output []float64, target float64, dOut []float64) float64 {
	p := dOut[:len(output)]
	Softmax(output, p)
	cls := int(target)
	if cls < 0 {
		cls = 0
	}
	if cls >= len(output) {
		cls = len(output) - 1
	}
	const tiny = 1e-12
	loss := -math.Log(p[cls] + tiny)
	p[cls] -= 1
	return loss
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
	// Workers follows par.Run: at most 1 trains on the caller's goroutine;
	// n ≥ 2 trains on the caller's and n−1 more (no more than a batch has
	// samples), which split each batch's samples and then the network's
	// weights among them. The weights and the loss are the same bits for any
	// value.
	Workers int

	// OnEpoch, if set, is called on the caller's goroutine after each epoch
	// with the epoch index and mean training loss; returning false stops
	// training early.
	OnEpoch func(epoch int, loss float64) bool
}

// Fit trains the network on inputs X and targets Y (class index or
// regression value per sample). It returns the mean loss of the final epoch.
//
// Each batch runs in two phases (DESIGN.md §10), each split among the
// workers and ended by a barrier. In phase A every sample's forward, loss and
// backward run against the batch's fixed weights, the samples split among the
// workers; each leaves its layer inputs and masked output gradients in its
// slot. In phase B each worker owns a share of the network's rows: it sums
// their gradients over the slots in sample order, then scales, decays and
// steps them. No sum is split or reordered, so the weights, the optimizer
// state and the loss are the bits of one loop over the samples at any worker
// count.
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
	f := newFit(t, X, Y)
	defer f.stop()
	return f.run(), nil
}

// The phases a worker runs.
const (
	phaseA = iota // forward, loss and backward of the worker's samples
	phaseB        // the sums and steps of the worker's rows
	quit          // the helpers return
)

// fit is one Fit's state. Slot k holds the k-th sample of the current batch.
// The caller's goroutine is worker 0; workers 1 to n−1 are helpers, which
// wait for the caller to start a phase by advancing gen and add one to done
// when through it (waitFor, signal). Each counter is written on one side and
// polled on the other, so each has a cache line of its own. Each worker
// forwards through a transposed copy of the weights of its own (wts), which
// it refreshes at the start of phase A: no worker reads a cache line of it
// that another has just written.
type fit struct {
	t       *Trainer
	X       [][]float64
	Y       []float64
	layers  []*Dense
	workers int
	slots   int
	order   []int
	dense   []int         // every input of the first layer (Dense.affine)
	start   int           // the current batch is order[start : start+size]
	size    int           // the current batch's samples, and slots in use
	widths  []int         // widths[j]: layer j's input width; the last, the output's
	acts    [][]float64   // acts[j]: a row of widths[j] per slot, layer j's input (the last: the output)
	deltas  [][]float64   // deltas[j]: a row of Out per slot, layer j's masked output gradient
	losses  []float64     // each slot's loss, a cache line apart (lossStride)
	scratch []scratch     // each worker's backward buffers
	wts     [][][]float64 // wts[w][j]: worker w's transposed copy of layer j's W (worker 0's is the layer's)
	shares  [][]piece     // each worker's rows in phase B
	m, v    [][]float64   // each group's moments in t.Opt

	phase int
	_     [64]byte
	gen   atomic.Int64 // phases the caller has started
	_     [56]byte
	done  atomic.Int64 // phases the helpers have finished, summed over them
	_     [56]byte
	taken atomic.Int64 // runs of phase A's slots the workers have taken
	_     [56]byte
	// wakes[w] is where worker w blocks when its wait runs long; nil where
	// it never blocks (a core per worker).
	wakes []chan struct{}
	wg    sync.WaitGroup
}

// scratch is one worker's buffers for a sample's forward and backward;
// bad[j]: the input of layer j was not all finite in some slot of the batch
// the worker ran; sparse[j]: the guard of layer j's skip of zero inputs holds
// for the batch's weights (Dense.transposeInto). The buffers are made
// separately and at least a cache line long, so no two workers write one
// line.
type scratch struct {
	dOut, dIn   []float64
	rows, cols  []int
	bad, sparse []bool
}

// lossStride is the distance between two slots' losses: a cache line, so
// workers on neighbouring slots do not write one line.
const lossStride = 8

// piece is rows [lo, hi) of a layer, whose gradients one worker sums and
// steps in phase B.
type piece struct{ layer, lo, hi int }

func newFit(t *Trainer, X [][]float64, Y []float64) *fit {
	layers := t.Net.Layers
	L := len(layers)
	slots := min(t.BatchSize, len(X))
	f := &fit{t: t, X: X, Y: Y, layers: layers, workers: min(max(t.Workers, 1), slots), slots: slots,
		order: make([]int, len(X)), dense: denseRows(t.Net.InDim()), widths: make([]int, L+1),
		acts: make([][]float64, L+1), deltas: make([][]float64, L), losses: make([]float64, slots*lossStride)}
	for i := range f.order {
		f.order[i] = i
	}
	wide := 0
	for j, l := range layers {
		f.widths[j] = l.In
		f.deltas[j] = make([]float64, slots*l.Out)
		wide = max(wide, l.In, l.Out)
	}
	f.widths[L] = t.Net.OutDim()
	for j, w := range f.widths {
		f.acts[j] = make([]float64, slots*w)
	}
	f.scratch, f.wts = make([]scratch, f.workers), make([][][]float64, f.workers)
	for w := range f.scratch {
		f.scratch[w] = scratch{dOut: make([]float64, max(t.Net.OutDim(), 8)), dIn: make([]float64, max(wide, 8)),
			rows: make([]int, max(wide, 8)), cols: make([]int, max(wide, 8)),
			bad: make([]bool, max(L, 64)), sparse: make([]bool, max(L, 64))}
		f.wts[w] = make([][]float64, L)
		for j, l := range layers {
			if f.wts[w][j] = l.wt; w > 0 && l.wt != nil {
				f.wts[w][j] = make([]float64, len(l.wt))
			}
		}
	}
	f.shares = share(layers, f.workers)
	f.m, f.v = make([][]float64, 2*L), make([][]float64, 2*L)
	for j, l := range layers {
		f.m[2*j], f.v[2*j] = t.Opt.moments(2*j, len(l.W))
		f.m[2*j+1], f.v[2*j+1] = t.Opt.moments(2*j+1, len(l.B))
	}
	if f.workers > 1 {
		f.wakes = make([]chan struct{}, f.workers)
		for w := range f.wakes {
			if f.workers > runtime.NumCPU() {
				f.wakes[w] = make(chan struct{}, 1)
			}
		}
		for w := 1; w < f.workers; w++ {
			f.wg.Add(1)
			go f.help(w)
		}
	}
	return f
}

// share splits the network's rows among the workers in runs of four rows.
// A row costs its sum over the batch and its step, the sum running its In
// inputs in blocks of 16 (the last one masked): 16 per block and 8 more.
// Worker w's runs start where the cost before them reaches w/workers of the
// total, rounded to the nearest run; to a layer's first row instead where
// that is within 1/16 of a worker's share of it, since a layer split between
// two workers has both read all of the batch's inputs and gradients for it.
func share(layers []*Dense, workers int) [][]piece {
	cost := func(l *Dense) int { return (l.In+15)&^15 + 8 }
	total := 0
	for _, l := range layers {
		total += l.Out * cost(l)
	}
	cuts := make([]int, workers-1) // the cost before worker w+1's first run
	for w := range cuts {
		target := (w + 1) * total / workers
		run, edge, before := -1, -1, 0
		for _, l := range layers {
			if edge < 0 || abs(before-target) < abs(edge-target) {
				edge = before
			}
			for lo := 0; lo < l.Out; lo += 4 {
				if c := before + lo*cost(l); run < 0 || abs(c-target) < abs(run-target) {
					run = c
				}
			}
			before += l.Out * cost(l)
		}
		cuts[w] = run
		if edge > 0 && abs(edge-target)*16*workers <= total {
			cuts[w] = edge
		}
	}
	shares := make([][]piece, workers)
	before := 0
	for j, l := range layers {
		for lo := 0; lo < l.Out; lo += 4 {
			hi, w := min(lo+4, l.Out), 0
			for w < len(cuts) && cuts[w] <= before {
				w++
			}
			before += (hi - lo) * cost(l)
			if s := shares[w]; len(s) > 0 && s[len(s)-1].layer == j && s[len(s)-1].hi == lo {
				s[len(s)-1].hi = hi
			} else {
				shares[w] = append(s, piece{j, lo, hi})
			}
		}
	}
	return shares
}

func abs(x int) int { return max(x, -x) }

// run is the training loop on the caller's goroutine; it returns the mean
// loss of the last epoch it ran.
func (f *fit) run() float64 {
	t, n := f.t, len(f.X)
	rng := rand.New(rand.NewSource(t.Seed))
	loss := 0.0
	for epoch := 0; epoch < t.Epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { f.order[i], f.order[j] = f.order[j], f.order[i] })
		sum := 0.0
		for f.start = 0; f.start < n; f.start += t.BatchSize {
			f.size = min(t.BatchSize, n-f.start)
			f.taken.Store(0)
			f.each(phaseA)
			for k := 0; k < f.size; k++ {
				sum += f.losses[k*lossStride]
			}
			t.Opt.BeginStep()
			f.each(phaseB)
		}
		loss = sum / float64(n)
		if t.OnEpoch != nil && !t.OnEpoch(epoch, loss) {
			break
		}
	}
	for _, l := range f.layers {
		l.transposeW()
	}
	return loss
}

// spins is how many times a worker polls the counter it waits on between two
// yields of its goroutine (runtime.Gosched), and yields is how many yields it
// makes before it blocks, where it may block. A phase takes tens of
// microseconds: a worker with a core of its own seldom yields, and yielding
// lets workers that share a P (GOMAXPROCS below the worker count) run. Where
// the workers outnumber the cores, a worker blocks after about a tenth of a
// millisecond and lets the one it waits for have the core; elsewhere it
// never blocks, since a thread wake-up costs more than a phase, and more
// still on a host whose other tenants hold its cores at times.
const spins, yields = 1000, 100

// waitFor returns once c reaches v. It polls c, then, if wake is not nil,
// blocks on wake, where a token is put after every advance of c (signal). A
// stale token only wakes it to look again, and an advance always leaves a
// token, so none is lost.
func waitFor(c *atomic.Int64, v int64, wake chan struct{}) {
	for i := 1; c.Load() < v; i++ {
		switch {
		case wake != nil && i >= spins*yields:
			<-wake
		case i%spins == 0:
			runtime.Gosched()
		}
	}
}

// signal puts a token on wake unless one is waiting there already (or wake is
// nil).
func signal(wake chan struct{}) {
	select {
	case wake <- struct{}{}:
	default:
	}
}

// each runs phase on every worker and returns when all are through it.
func (f *fit) each(phase int) {
	f.phase = phase
	if f.workers == 1 {
		f.work(0)
		return
	}
	want := f.gen.Add(1) * int64(f.workers-1)
	for _, wake := range f.wakes[1:] {
		signal(wake)
	}
	f.work(0)
	waitFor(&f.done, want, f.wakes[0])
}

// help is helper w's loop: each phase the caller starts, until quit.
func (f *fit) help(w int) {
	defer f.wg.Done()
	for seen := int64(1); ; seen++ {
		waitFor(&f.gen, seen, f.wakes[w])
		if f.phase == quit {
			return
		}
		f.work(w)
		f.done.Add(1)
		signal(f.wakes[0])
	}
}

// stop ends the helpers; no goroutine of the Fit outlives it.
func (f *fit) stop() {
	if f.workers > 1 {
		f.phase = quit
		f.gen.Add(1)
		for _, wake := range f.wakes[1:] {
			signal(wake)
		}
		f.wg.Wait()
	}
}

// work is worker w's part of the current phase. In phase A it refreshes its
// transposed weights and their guards and then takes runs of the batch's
// slots, four runs per worker, until none is left: a worker whose thread is
// slowed (by another process on its core) leaves its runs to the others. In
// phase B it steps its share of the rows.
func (f *fit) work(w int) {
	switch f.phase {
	case phaseA:
		for j, l := range f.layers {
			if f.wts[w][j] != nil && useAVX2 {
				f.scratch[w].sparse[j] = l.transposeInto(f.wts[w][j])
			}
		}
		clear(f.scratch[w].bad)
		runs := 4 * f.workers
		for r := int(f.taken.Add(1)) - 1; r < runs; r = int(f.taken.Add(1)) - 1 {
			for k := r * f.size / runs; k < (r+1)*f.size/runs; k++ {
				f.sample(w, k)
			}
		}
	case phaseB:
		for _, p := range f.shares[w] {
			f.sumStep(p)
		}
	}
}

// act is layer j's input in slot k (j = L: the network's output).
func (f *fit) act(j, k int) []float64 {
	w := f.widths[j]
	return f.acts[j][k*w:][:w]
}

// sample runs slot k's sample forward, through the loss and backward,
// leaving every layer's input and masked output gradient in the slot. The
// forward is Infer's: every layer above the first skips its zero inputs
// where the worker's copy of its weights allows.
func (f *fit) sample(w, k int) {
	sc, i := &f.scratch[w], f.order[f.start+k]
	x, rows := f.act(0, k), f.dense
	copy(x, f.X[i])
	for j, l := range f.layers {
		sc.bad[j] = sc.bad[j] || !finite(x)
		y := f.act(j+1, k)
		l.affine(f.wts[w][j], x, y, rows)
		above, skip := []int(nil), false
		if j+1 < len(f.layers) {
			above, skip = sc.rows, sc.sparse[j+1]
		}
		rows = l.activate(y, above, skip)
		x = y
	}
	f.losses[k*lossStride] = f.t.Loss.LossAndGrad(x, f.Y[i], sc.dOut)
	g := sc.dOut
	for j := len(f.layers) - 1; j >= 0; j-- {
		l := f.layers[j]
		delta := f.deltas[j][k*l.Out:][:l.Out]
		rows := l.mask(f.act(j+1, k), g, delta, sc.rows)
		if j > 0 {
			l.propagate(f.act(j, k), delta, sc.dIn, rows, sc.cols, f.t.Net.inputGrad(j))
			g = sc.dIn
		}
	}
}

// sumStep sums the batch's gradients of piece p's rows, averages them, adds
// the weight decay and steps the rows. A
// layer whose input was not finite in some slot sums over each slot's live
// rows only (accumulate).
func (f *fit) sumStep(p piece) {
	l, in := f.layers[p.layer], f.layers[p.layer].In
	dense := true
	for w := range f.scratch {
		dense = dense && !f.scratch[w].bad[p.layer]
	}
	gw, gb, w := l.gradW[p.lo*in:p.hi*in], l.gradB[p.lo:p.hi], l.W[p.lo*in:p.hi*in]
	clear(gw)
	clear(gb)
	l.accumulate(f.deltas[p.layer], f.acts[p.layer], f.acts[p.layer+1], f.size, p.lo, p.hi, dense, 1/float64(f.size))
	if decay := f.t.WeightDecay; decay > 0 {
		for i := range gw {
			gw[i] += decay * w[i]
		}
	}
	id, opt := 2*p.layer, f.t.Opt
	opt.update(w, gw, part(f.m[id], p.lo*in, p.hi*in), part(f.v[id], p.lo*in, p.hi*in))
	opt.update(l.B[p.lo:p.hi], gb, part(f.m[id+1], p.lo, p.hi), part(f.v[id+1], p.lo, p.hi))
}

// part is v[lo:hi], or nil for a moment the optimizer does not keep.
func part(v []float64, lo, hi int) []float64 {
	if v == nil {
		return nil
	}
	return v[lo:hi]
}
