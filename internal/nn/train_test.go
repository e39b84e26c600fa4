package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// fitCase is one training run: a network of depth layers, widths drawn from
// the seed, and everything Fit's loop branches on.
type fitCase struct {
	seed      int64
	depth     int    // layers, 1–6
	opt       string // "adam" or "rmsprop"
	mse       bool   // MSE on one output, else cross-entropy over five classes
	decay     float64
	n, batch  int
	epochs    int
	stopAfter int // OnEpoch returns false at this epoch index; -1 never
}

func (c fitCase) String() string {
	return fmt.Sprintf("seed=%d depth=%d %s mse=%v decay=%v n=%d batch=%d epochs=%d stop=%d",
		c.seed, c.depth, c.opt, c.mse, c.decay, c.n, c.batch, c.epochs, c.stopAfter)
}

// data draws the case's samples and targets.
func (c fitCase) data() (X [][]float64, Y []float64) {
	rng := rand.New(rand.NewSource(c.seed))
	in := 1 + rng.Intn(9)
	for i := 0; i < c.n; i++ {
		x := make([]float64, in)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		y := float64(rng.Intn(5))
		if c.mse {
			y = x[0] - 0.5*x[len(x)-1]
		}
		X, Y = append(X, x), append(Y, y)
	}
	return X, Y
}

// trainer builds the case's network and optimizer afresh; the slice it
// returns collects the epoch indices OnEpoch is called with.
func (c fitCase) trainer(in int, workers int) (*Trainer, *[]int) {
	rng := rand.New(rand.NewSource(c.seed + 1))
	hidden := make([]int, c.depth-1)
	for i := range hidden {
		hidden[i] = 1 + rng.Intn(20)
	}
	out, loss := 5, Loss(&CrossEntropy{})
	if c.mse {
		out, loss = 1, MSE{}
	}
	var opt Optimizer
	switch c.opt {
	case "adam":
		opt = NewAdam(0.01)
	case "rmsprop":
		opt = NewRMSprop(0.005)
	}
	var epochs []int
	tr := &Trainer{Net: NewMLP(in, hidden, out, c.seed+2), Loss: loss, Opt: opt,
		BatchSize: c.batch, Epochs: c.epochs, Seed: c.seed + 3, WeightDecay: c.decay, Workers: workers,
		OnEpoch: func(e int, _ float64) bool { epochs = append(epochs, e); return e != c.stopAfter }}
	return tr, &epochs
}

// checkFit trains the case twice in a row on one trainer through Fit at
// workers and through refFit, and requires the same epochs, losses, weights
// and optimizer state, bit for bit (a NaN for a NaN), after each. The second
// run continues from the first's optimizer state, so it also holds Fit to
// handing that state back. The goroutine count must be back to at most its
// value before every Fit.
func checkFit(t *testing.T, c fitCase, workers int) {
	t.Helper()
	X, Y := c.data()
	ref, refEpochs := c.trainer(len(X[0]), workers)
	got, gotEpochs := c.trainer(len(X[0]), workers)
	for run := 0; run < 2; run++ {
		want := refFit(ref, X, Y)
		before := runtime.NumGoroutine()
		loss, err := got.Fit(X, Y)
		if err != nil {
			t.Fatal(err)
		}
		if n := settledGoroutines(before); n > before {
			t.Fatalf("%v workers=%d: %d goroutines before Fit, %d after", c, workers, before, n)
		}
		if fmt.Sprint(*gotEpochs) != fmt.Sprint(*refEpochs) {
			t.Fatalf("%v workers=%d run %d: epochs %v, reference %v", c, workers, run, *gotEpochs, *refEpochs)
		}
		if !sameFloat(loss, want) {
			t.Fatalf("%v workers=%d run %d: loss %x, reference %x", c, workers, run, math.Float64bits(loss), math.Float64bits(want))
		}
		for i, l := range got.Net.Layers {
			r := ref.Net.Layers[i]
			if j := firstDiff(l.W, r.W); j >= 0 {
				t.Fatalf("%v workers=%d run %d: layer %d W[%d] = %x, reference %x", c, workers, run, i, j, math.Float64bits(l.W[j]), math.Float64bits(r.W[j]))
			}
			if j := firstDiff(l.B, r.B); j >= 0 {
				t.Fatalf("%v workers=%d run %d: layer %d B[%d] = %x, reference %x", c, workers, run, i, j, math.Float64bits(l.B[j]), math.Float64bits(r.B[j]))
			}
		}
		gs, rs := got.Opt.(splittable).own(), ref.Opt.(splittable).own()
		if gs.t != rs.t || len(gs.m) != len(rs.m) || len(gs.v) != len(rs.v) {
			t.Fatalf("%v workers=%d run %d: optimizer at step %d with %d+%d groups, reference %d with %d+%d",
				c, workers, run, gs.t, len(gs.m), len(gs.v), rs.t, len(rs.m), len(rs.v))
		}
		for id, x := range rs.m {
			if firstDiff(gs.m[id], x) >= 0 {
				t.Fatalf("%v workers=%d run %d: first moment of group %d differs", c, workers, run, id)
			}
		}
		for id, x := range rs.v {
			if firstDiff(gs.v[id], x) >= 0 {
				t.Fatalf("%v workers=%d run %d: second moment of group %d differs", c, workers, run, id)
			}
		}
		*gotEpochs, *refEpochs = nil, nil
		got.Seed, ref.Seed = got.Seed+1, ref.Seed+1
	}
}

// firstDiff is the first index where a and b differ (sameFloat), or -1.
func firstDiff(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if !sameFloat(a[i], b[i]) {
			return i
		}
	}
	return -1
}

// settledGoroutines waits up to a second for the goroutine count to come
// back to want (or below: an earlier test's goroutine may end meanwhile) and
// returns it. A stage's goroutine has signalled its end before Fit returns
// but may not have left the scheduler yet.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for end := time.Now().Add(time.Second); n > want && time.Now().Before(end); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestFitWorkersBitIdentical holds Fit at 1, 2 and 3 workers to refFit,
// on each kernel path, for every optimizer, with and without weight decay,
// under both losses, at depths 1–6, on 53 samples in batches of 8 (a partial
// batch every epoch, so slot k and the sample count part ways after the
// first), and with OnEpoch stopping after the second of three epochs.
func TestFitWorkersBitIdentical(t *testing.T) {
	onEachKernel(t, func(t *testing.T) {
		seed := int64(0)
		for depth := 1; depth <= 6; depth++ {
			for _, opt := range []string{"adam", "rmsprop"} {
				for _, mse := range []bool{false, true} {
					for _, decay := range []float64{0, 1e-3} {
						for _, stop := range []int{-1, 1} {
							seed++
							c := fitCase{seed: seed, depth: depth, opt: opt, mse: mse, decay: decay,
								n: 53, batch: 8, epochs: 3, stopAfter: stop}
							for workers := 1; workers <= 3; workers++ {
								checkFit(t, c, workers)
							}
						}
					}
				}
			}
		}
	})
}

// FuzzFitWorkersEquivalence is TestFitWorkersBitIdentical over any shape:
// depth, widths, sample count, batch size, epochs, early stop, optimizer,
// loss, decay and workers from the fuzzer.
func FuzzFitWorkersEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(0), false, false, uint8(53), uint8(8), uint8(3), uint8(9), uint8(2))
	f.Add(int64(2), uint8(6), uint8(3), true, true, uint8(7), uint8(32), uint8(2), uint8(0), uint8(3))
	f.Add(int64(3), uint8(1), uint8(1), false, true, uint8(1), uint8(1), uint8(1), uint8(9), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, depth, opt uint8, mse, decay bool, n, batch, epochs, stop, workers uint8) {
		c := fitCase{seed: seed, depth: 1 + int(depth)%6, opt: []string{"adam", "rmsprop"}[opt%2],
			mse: mse, n: 1 + int(n)%80, batch: 1 + int(batch)%40, epochs: 1 + int(epochs)%4, stopAfter: int(stop%5) - 1}
		if decay {
			c.decay = 1e-3
		}
		checkFit(t, c, 1+int(workers)%3)
	})
}

// TestFitAllocsIndependentOfEpochs pins what a Fit allocates (the order,
// the slots, the workers' scratch and, at two workers, the helper's
// goroutine) as a count that training longer does not change.
func TestFitAllocsIndependentOfEpochs(t *testing.T) {
	c := fitCase{seed: 4, depth: 3, opt: "adam", n: 53, batch: 8}
	X, Y := c.data()
	for workers := 1; workers <= 2; workers++ {
		allocs := func(epochs int) float64 {
			tr, _ := c.trainer(len(X[0]), workers)
			tr.Epochs, tr.OnEpoch = epochs, nil
			tr.Fit(X, Y) // the optimizer's moments and the loss's scratch
			return testing.AllocsPerRun(20, func() {
				if _, err := tr.Fit(X, Y); err != nil {
					t.Fatal(err)
				}
			})
		}
		if one, five := allocs(1), allocs(5); one != five {
			t.Errorf("workers=%d: Fit allocates %v times over 1 epoch, %v over 5", workers, one, five)
		}
	}
}
