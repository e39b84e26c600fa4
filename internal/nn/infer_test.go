package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestInferMatchesForward checks the reentrant path, whose upper layers skip
// the zero outputs of the layers below, is bit-identical to the tests' dense
// forward chain: on ReLU layers, and on an Identity hidden layer with units
// that output +0 and −0.
func TestInferMatchesForward(t *testing.T) {
	onEachKernel(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(3))
		identity := &Network{Layers: []*Dense{NewDense(7, 18, Identity, r), NewDense(18, 9, ReLU, r), NewDense(9, 5, Identity, r)}}
		for i := 0; i < 7; i++ {
			identity.Layers[0].W[2*7+i] = 0
			identity.Layers[0].W[13*7+i] = 0
		}
		identity.Layers[0].B[13] = math.Copysign(0, -1)
		identity.Layers[0].transposeW()
		for _, net := range []*Network{NewMLP(7, []int{16, 11}, 5, 42), identity} {
			arena := net.NewArena()
			p := newPass(net)
			rng := rand.New(rand.NewSource(7))
			for iter := 0; iter < 200; iter++ {
				x := make([]float64, 7)
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				want := append([]float64(nil), p.Forward(x)...)
				got := net.Infer(x, arena)
				if len(got) != len(want) {
					t.Fatalf("output length %d != %d", len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%v iter %d output[%d]: Infer %v != forward %v", net, iter, i, got[i], want[i])
					}
				}
			}
		}
	})
}

// TestConcurrentInfer hammers one trained Network from many goroutines, each
// with its own arena, and checks every result against the serial reference.
// Run under -race this is the correctness gate for the shared-predictor
// concurrency of the parallel experiment harness.
func TestConcurrentInfer(t *testing.T) {
	const (
		goroutines = 16
		inputs     = 64
		rounds     = 50
	)
	net := NewMLP(9, []int{24, 24}, 13, 3)

	xs := make([][]float64, inputs)
	want := make([][]float64, inputs)
	p := newPass(net)
	rng := rand.New(rand.NewSource(11))
	for i := range xs {
		xs[i] = make([]float64, 9)
		for j := range xs[i] {
			xs[i][j] = rng.NormFloat64() * 3
		}
		want[i] = append([]float64(nil), p.Forward(xs[i])...)
	}

	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			arena := net.NewArena()
			for r := 0; r < rounds; r++ {
				i := (g + r) % inputs
				got := net.Infer(xs[i], arena)
				for j := range want[i] {
					if got[j] != want[i][j] {
						errs <- "concurrent Infer diverged from the serial forward chain"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func BenchmarkInfer(b *testing.B) {
	net := NewMLP(12, []int{48, 48}, 61, 1)
	arena := net.NewArena()
	x := make([]float64, 12)
	for i := range x {
		x[i] = float64(i) * 0.1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Infer(x, arena)
	}
}

func BenchmarkInferParallel(b *testing.B) {
	net := NewMLP(12, []int{48, 48}, 61, 1)
	x := make([]float64, 12)
	for i := range x {
		x[i] = float64(i) * 0.1
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		arena := net.NewArena()
		for pb.Next() {
			net.Infer(x, arena)
		}
	})
}

// refLayer is the layer as it was computed before the row-blocked kernel: one
// output at a time, bias first, products added by ascending input index.
// Every forward pass must return its bits.
func refLayer(d *Dense, x []float64) []float64 {
	out := make([]float64, d.Out)
	for o := range out {
		sum := d.B[o]
		row := d.W[o*d.In : (o+1)*d.In]
		for i, xi := range x {
			sum += row[i] * xi
		}
		if d.Act == ReLU && sum < 0 {
			sum = 0
		}
		out[o] = sum
	}
	return out
}

// upper is d's forward as Infer and Trainer.Fit run it on a layer above
// another: over the non-zero inputs where d's guard allows, every input
// otherwise.
func upper(d *Dense, x []float64) []float64 {
	var rows []int
	for i, xi := range x {
		if !d.sparse || nonZero(xi) == 1 {
			rows = append(rows, i)
		}
	}
	z := make([]float64, d.Out)
	d.affine(d.wt, x, z, rows)
	d.activate(z, nil, false)
	return z
}

// TestKernelMatchesScalarReference checks the dense forward ≡ Infer ≡ the
// upper-layer forward ≡ refLayer to the bit over output widths on both sides
// of the Go loop's four-row block and its scalar tail and of the AVX2
// kernel's 16-lane block, for both activations and on both paths: on random
// inputs (negative sums under ReLU) with and without exact zeros among them;
// on a layer built to produce -0 pre-activations, which ReLU must not turn
// into +0; on a sum that goes NaN before a NaN input arrives; and on the
// layers the skip of zero inputs must not be used on: a −0 bias, whose sum
// the first +0 product turns +0, a ±Inf or NaN weight, whose product with a
// zero input is NaN, and a signalling-NaN bias, which the first add quiets.
func TestKernelMatchesScalarReference(t *testing.T) {
	onEachKernel(t, testKernelMatchesScalarReference)
}

func testKernelMatchesScalarReference(t *testing.T) {
	negZero := math.Copysign(0, -1)
	rng := rand.New(rand.NewSource(21))
	for _, out := range []int{1, 2, 3, 4, 5, 7, 48, 61} {
		for _, act := range []Activation{ReLU, Identity} {
			for _, in := range []int{1, 15} {
				d := NewDense(in, out, act, rng)
				net := &Network{Layers: []*Dense{d}}
				arena := net.NewArena()
				p := newPass(net)
				check := func(x []float64) []float64 {
					t.Helper()
					want := refLayer(d, x)
					fwd := append([]float64(nil), p.Forward(x)...)
					inf := net.Infer(x, arena)
					up := upper(d, x)
					for o := range want {
						w, f, g, u := math.Float64bits(want[o]), math.Float64bits(fwd[o]), math.Float64bits(inf[o]), math.Float64bits(up[o])
						if f != w || g != w || u != w {
							t.Fatalf("in=%d out=%d act=%d row %d: reference %x, forward %x, Infer %x, upper layer %x", in, out, act, o, w, f, g, u)
						}
					}
					return want
				}

				for o := range d.B {
					d.B[o] = rng.NormFloat64()
				}
				d.transposeW()
				x := make([]float64, in)
				for n := 0; n < 40; n++ {
					for i := range x {
						x[i] = rng.NormFloat64() * 2
						if n%2 == 1 && rng.Intn(2) == 0 {
							x[i] = []float64{0, negZero}[rng.Intn(2)]
						}
					}
					check(x)
				}

				// The guard: with the skip, each of these layers would give
				// other bits on the zero inputs below.
				wasW := append([]float64(nil), d.W...)
				for i := range x {
					x[i] = []float64{0, 1}[i%2]
				}
				for i := range d.W {
					d.W[i] = math.Abs(d.W[i])
				}
				for o := range d.B {
					d.B[o] = negZero
				}
				d.transposeW()
				if got := check(x)[0]; math.Float64bits(got) == math.Float64bits(negZero) {
					t.Fatalf("in=%d out=%d act=%d: a -0 bias plus a +0 product stayed -0", in, out, act)
				}
				for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
					copy(d.W, wasW)
					clear(d.B)
					d.W[0] = bad // row 0, input 0, which is +0
					d.transposeW()
					if got := check(x)[0]; !math.IsNaN(got) {
						t.Fatalf("in=%d out=%d act=%d: weight %v times a zero input gave %v, not NaN", in, out, act, bad, got)
					}
				}
				copy(d.W, wasW)
				// A signalling-NaN bias: the first add quiets it, and with
				// every input zero a skip would leave no add.
				const sNaN = 0x7ff0000000000001
				d.B[0] = math.Float64frombits(sNaN)
				d.transposeW()
				clear(x)
				if got := math.Float64bits(check(x)[0]); got == sNaN {
					t.Fatalf("in=%d out=%d act=%d: the signalling NaN bias came through unquieted", in, out, act)
				}

				// A -0 bias plus -0 products (positive weight, -0 input) sums
				// to -0 on every row.
				for o := range d.B {
					d.B[o] = negZero
				}
				for i := range d.W {
					d.W[i] = math.Abs(d.W[i])
				}
				d.transposeW()
				for i := range x {
					x[i] = negZero
				}
				if got := check(x)[0]; math.Float64bits(got) != math.Float64bits(negZero) {
					t.Fatalf("in=%d out=%d act=%d: the -0 case produced %v", in, out, act, got)
				}

				// With positive weights, +Inf then -Inf make the sum x86's
				// default NaN; a NaN input then adds a product with another
				// payload. Which payload survives is the compiler's choice in
				// the Go loops (the ordinary amd64 build keeps the sum's, and
				// -race or fuzzing builds move it), so they only have to
				// agree that it is NaN. The kernel's choice is fixed: the
				// accumulator is the add's first operand, and its NaN wins.
				if in >= 3 {
					x[0], x[1], x[2] = math.Inf(1), math.Inf(-1), math.NaN()
					want := refLayer(d, x)
					fwd := append([]float64(nil), p.Forward(x)...)
					inf := net.Infer(x, arena)
					for o := range want {
						if !sameFloat(fwd[o], want[o]) || !sameFloat(inf[o], want[o]) {
							t.Fatalf("in=%d out=%d act=%d NaN case row %d: reference %v, forward %v, Infer %v", in, out, act, o, want[o], fwd[o], inf[o])
						}
					}
					const defaultNaN = 0xfff8000000000000
					if got := math.Float64bits(fwd[0]); useAVX2 && got != defaultNaN {
						t.Fatalf("in=%d out=%d act=%d: the NaN case produced %x, want %x", in, out, act, got, uint64(defaultNaN))
					}
				}
			}
		}
	}
}

// pinNet is the 15 → 5×128 → 40 shape of the latency classifier, with one
// input vector drawn from a seeded stream.
func pinNet() (*Network, []float64) {
	net := NewMLP(15, []int{128, 128, 128, 128, 128}, 40, 1)
	x := make([]float64, 15)
	rng := rand.New(rand.NewSource(2))
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return net, x
}

// TestInferAllocFree pins the per-query inference path (Network.Infer with a
// reused Arena, through affine and activate: the kernel, the clamp and the
// row lists) at zero allocations: every decision in the simulator and the
// live ISN runs it.
func TestInferAllocFree(t *testing.T) {
	net, x := pinNet()
	arena := net.NewArena()
	if n := testing.AllocsPerRun(100, func() { net.Infer(x, arena) }); n != 0 {
		t.Errorf("Infer allocates %v times per call, want 0", n)
	}
}

// TestTrainStepAllocFree pins one training step on a warmed network at zero
// allocations: the tests' forward and backward chain and ZeroGrad through
// every layer's kernels, and an Adam step over every parameter group once
// its moments exist.
func TestTrainStepAllocFree(t *testing.T) {
	net, x := pinNet()
	p := newPass(net)
	dOut := make([]float64, net.OutDim())
	for i := range dOut {
		dOut[i] = float64(i%5) - 2
	}
	opt := NewAdam(1e-3)
	step := func() {
		net.ZeroGrad()
		p.Forward(x)
		p.Backward(dOut)
		opt.BeginStep()
		for li, l := range net.Layers {
			opt.Step(2*li, l.W, l.gradW)
			opt.Step(2*li+1, l.B, l.gradB)
		}
	}
	step() // Adam allocates each group's moments on its first step
	if n := testing.AllocsPerRun(50, step); n != 0 {
		t.Errorf("a training step allocates %v times, want 0", n)
	}
}
