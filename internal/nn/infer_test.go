package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestInferMatchesForward checks the reentrant path is bit-identical to the
// training-time Forward pass.
func TestInferMatchesForward(t *testing.T) {
	net := NewMLP(7, []int{16, 11}, 5, 42)
	arena := net.NewArena()
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		x := make([]float64, 7)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := append([]float64(nil), net.Forward(x)...)
		got := net.Infer(x, arena)
		if len(got) != len(want) {
			t.Fatalf("output length %d != %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("iter %d output[%d]: Infer %v != Forward %v", iter, i, got[i], want[i])
			}
		}
	}
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
	rng := rand.New(rand.NewSource(11))
	for i := range xs {
		xs[i] = make([]float64, 9)
		for j := range xs[i] {
			xs[i][j] = rng.NormFloat64() * 3
		}
		want[i] = append([]float64(nil), net.Forward(xs[i])...)
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
						errs <- "concurrent Infer diverged from serial Forward"
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
// Forward and Infer must return its bits.
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

// TestKernelMatchesScalarReference checks Forward ≡ Infer ≡ refLayer to the
// bit over output widths on both sides of the kernel's four-row block and its
// scalar tail, for both activations, on random inputs (negative sums under
// ReLU) and on a layer built to produce -0 pre-activations, which ReLU must
// not turn into +0.
func TestKernelMatchesScalarReference(t *testing.T) {
	negZero := math.Copysign(0, -1)
	rng := rand.New(rand.NewSource(21))
	for _, out := range []int{1, 2, 3, 4, 5, 7, 48, 61} {
		for _, act := range []Activation{ReLU, Identity} {
			for _, in := range []int{1, 15} {
				d := NewDense(in, out, act, rng)
				net := &Network{Layers: []*Dense{d}}
				arena := net.NewArena()
				check := func(x []float64) []float64 {
					t.Helper()
					want := refLayer(d, x)
					fwd := append([]float64(nil), d.Forward(x)...)
					inf := net.Infer(x, arena)
					for o := range want {
						w, f, g := math.Float64bits(want[o]), math.Float64bits(fwd[o]), math.Float64bits(inf[o])
						if f != w || g != w {
							t.Fatalf("in=%d out=%d act=%d row %d: reference %x, Forward %x, Infer %x", in, out, act, o, w, f, g)
						}
					}
					return want
				}

				for o := range d.B {
					d.B[o] = rng.NormFloat64()
				}
				x := make([]float64, in)
				for n := 0; n < 20; n++ {
					for i := range x {
						x[i] = rng.NormFloat64() * 2
					}
					check(x)
				}

				// A -0 bias plus -0 products (positive weight, -0 input) sums
				// to -0 on every row.
				for o := range d.B {
					d.B[o] = negZero
				}
				for i := range d.W {
					d.W[i] = math.Abs(d.W[i])
				}
				for i := range x {
					x[i] = negZero
				}
				if got := check(x)[0]; math.Float64bits(got) != math.Float64bits(negZero) {
					t.Fatalf("in=%d out=%d act=%d: the -0 case produced %v", in, out, act, got)
				}
			}
		}
	}
}
