package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// noAVX2 is why a test skips the AVX2 half of its run.
const noAVX2 = "CPUID reports no AVX2: the Go loops are the only path on this machine"

// kernelPaths are the two kernel selections the tests hold to one reference.
var kernelPaths = []struct {
	name string
	simd bool
}{{"go", false}, {"avx2", true}}

// onEachKernel runs f as the subtests "go" and "avx2", each with that path
// selected; the second skips, saying why, where CPUID reports no AVX2.
func onEachKernel(t *testing.T, f func(t *testing.T)) {
	for _, k := range kernelPaths {
		t.Run(k.name, func(t *testing.T) {
			if k.simd && !hasAVX2 {
				t.Skip(noAVX2)
			}
			defer SetSIMD(SetSIMD(k.simd))
			f(t)
		})
	}
}

// eachKernel runs f once per path this CPU has, with that path selected, for
// checks whose subtest names predate the AVX2 path.
func eachKernel(f func(path string)) {
	for _, k := range kernelPaths {
		if k.simd && !hasAVX2 {
			continue
		}
		prev := SetSIMD(k.simd)
		f(k.name)
		SetSIMD(prev)
	}
}

// checkNetMatchesRef requires the dense forward chain and Infer to return,
// bit for bit, what the row-major refLayer chain does on x: the transposed
// weights the AVX2 forward reads must be W's current value.
func checkNetMatchesRef(t *testing.T, what string, net *Network, x []float64) {
	t.Helper()
	want := x
	for _, l := range net.Layers {
		want = refLayer(l, want)
	}
	fwd := append([]float64(nil), newPass(net).Forward(x)...)
	inf := net.Infer(x, net.NewArena())
	for o, w := range want {
		wb, fb, ib := math.Float64bits(w), math.Float64bits(fwd[o]), math.Float64bits(inf[o])
		if fb != wb || ib != wb {
			t.Fatalf("%s: output %d: reference %x, forward %x, Infer %x", what, o, wb, fb, ib)
		}
	}
}

// TestTransposedWeightsCurrent checks that every writer of W refreshes the
// copy the AVX2 forward kernel reads: NewMLP, Load, and one Fit step under
// each optimizer.
func TestTransposedWeightsCurrent(t *testing.T) {
	if !hasAVX2 {
		t.Skip(noAVX2)
	}
	defer SetSIMD(SetSIMD(true))
	rng := rand.New(rand.NewSource(12))
	x := make([]float64, 7)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	X := [][]float64{x, {1, -1, 0.5, 2, -0.25, 0, 3}}
	Y := []float64{2, 0}

	net := NewMLP(7, []int{19, 33}, 5, 3)
	checkNetMatchesRef(t, "NewMLP", net, x)

	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkNetMatchesRef(t, "Load", loaded, x)

	for _, c := range []struct {
		name string
		opt  Optimizer
	}{
		{"Adam", NewAdam(0.05)},
		{"RMSprop", NewRMSprop(0.05)},
	} {
		net := NewMLP(7, []int{19, 33}, 5, 3)
		before := append([]float64(nil), net.Layers[0].W...)
		tr := &Trainer{Net: net, Loss: &CrossEntropy{}, Opt: c.opt, BatchSize: 2, Epochs: 1, Seed: 1}
		if _, err := tr.Fit(X, Y); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(before[0]) == math.Float64bits(net.Layers[0].W[0]) {
			t.Fatalf("%s: the step left W[0] unchanged, so it proves nothing", c.name)
		}
		checkNetMatchesRef(t, c.name+" step", net, x)
	}
}

// TestInputWidthMustMatch: the forward pass reads exactly In inputs, so a
// shorter or longer x panics on either path instead of dropping columns or
// reading the last sample's tail.
func TestInputWidthMustMatch(t *testing.T) {
	onEachKernel(t, func(t *testing.T) {
		net := NewMLP(5, []int{8}, 3, 1)
		arena, p := net.NewArena(), newPass(net)
		for _, n := range []int{0, 4, 6, 9} {
			x := make([]float64, n)
			for name, run := range map[string]func(){
				"forward": func() { p.Forward(x) },
				"Infer":   func() { net.Infer(x, arena) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s accepted %d inputs on a 5-input network", name, n)
						}
					}()
					run()
				}()
			}
		}
	})
}

// specialFloats are the inputs a forward pass must carry through with the
// scalar loop's bits: signed zeros, subnormals, infinities and NaN (whose
// payload an add propagates from its first operand when both are NaN).
var specialFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072009e-308,
	math.Inf(1), math.Inf(-1), math.NaN(), 1, -1,
}

// sameFloat is bit equality, except that any NaN matches any NaN. When two
// NaNs meet in an add, which payload survives depends on the operand order
// the compiler picks for a Go loop, and instrumented builds (fuzzing, -race)
// change that order (refLayer gave 7ff8000000000001 where the ordinary build
// and the AVX2 kernel give fff8000000000000). The kernel's order is fixed;
// TestKernelMatchesScalarReference pins its payload.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// FuzzForwardEquivalence holds the dense forward chain, Infer and the
// upper-layer forward (over the non-zero inputs, where the guard allows) to
// refLayer (sameFloat) on every path this CPU has, for layers 1–70 wide in
// and out (every 4-lane tail and 16-lane block boundary of the AVX2 kernel),
// inputs and biases drawn partly from specialFloats and partly exact zeros,
// and weights now and then ±Inf or NaN.
func FuzzForwardEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(15), uint8(48), uint8(0), uint8(0), false)
	f.Add(int64(2), uint8(48), uint8(61), uint8(30), uint8(50), true)
	f.Add(int64(3), uint8(70), uint8(1), uint8(100), uint8(0), true)
	f.Add(int64(4), uint8(1), uint8(17), uint8(60), uint8(90), false)
	f.Add(int64(5), uint8(48), uint8(48), uint8(0), uint8(55), true)  // hidden zeros, guard on
	f.Add(int64(6), uint8(33), uint8(20), uint8(12), uint8(60), true) // −0 biases and non-finite weights
	f.Fuzz(func(t *testing.T, seed int64, inSel, outSel, specialPct, zeroPct uint8, relu bool) {
		in, out := 1+int(inSel)%70, 1+int(outSel)%70
		rng := rand.New(rand.NewSource(seed))
		act := Identity
		if relu {
			act = ReLU
		}
		d := NewDense(in, out, act, rng)
		special := func(pct int) bool { return rng.Intn(100) < pct%101 }
		draw := func() float64 {
			switch {
			case special(int(specialPct)):
				return specialFloats[rng.Intn(len(specialFloats))]
			case special(int(zeroPct)):
				return []float64{0, math.Copysign(0, -1)}[rng.Intn(2)]
			}
			return rng.NormFloat64() * 2
		}
		for o := range d.B {
			d.B[o] = draw()
		}
		for i := range d.W {
			if special(int(specialPct) / 8) {
				d.W[i] = specialFloats[rng.Intn(len(specialFloats))]
			}
		}
		d.transposeW()
		net := &Network{Layers: []*Dense{d}}
		arena, p := net.NewArena(), newPass(net)
		x := make([]float64, in)
		for n := 0; n < 4; n++ {
			for i := range x {
				x[i] = draw()
			}
			want := refLayer(d, x)
			eachKernel(func(path string) {
				fwd := p.Forward(x)
				inf := net.Infer(x, arena)
				up := upper(d, x)
				for o, w := range want {
					if !sameFloat(fwd[o], w) || !sameFloat(inf[o], w) || !sameFloat(up[o], w) {
						t.Fatalf("%s in=%d out=%d act=%d row %d: reference %x, forward %x, Infer %x, upper layer %x", path, in, out, act, o,
							math.Float64bits(w), math.Float64bits(fwd[o]), math.Float64bits(inf[o]), math.Float64bits(up[o]))
					}
				}
			})
		}
	})
}

// TestAdamKernelMatchesGo holds the AVX2 Adam step to the Go loop, bit for
// bit in params and both moments, at every length from 1 to 70 (all four
// tails) over several steps, with gradients that are zero, subnormal or
// ordinary.
func TestAdamKernelMatchesGo(t *testing.T) {
	if !hasAVX2 {
		t.Skip(noAVX2)
	}
	rng := rand.New(rand.NewSource(5))
	for n := 1; n <= 70; n++ {
		for _, kind := range []string{"zero", "subnormal", "mixed"} {
			p0 := make([]float64, n)
			for i := range p0 {
				p0[i] = rng.NormFloat64()
			}
			grads := make([][]float64, 4)
			for s := range grads {
				g := make([]float64, n)
				for i := range g {
					switch {
					case kind == "zero" || (kind == "mixed" && i%3 == 0):
						g[i] = []float64{0, math.Copysign(0, -1)}[rng.Intn(2)]
					case kind == "subnormal" || (kind == "mixed" && i%3 == 1):
						g[i] = float64(rng.Intn(1<<20)-1<<19) * 5e-324
					default:
						g[i] = rng.NormFloat64()
					}
				}
				grads[s] = g
			}
			run := func(simd bool) (*Adam, []float64) {
				defer SetSIMD(SetSIMD(simd))
				a, p := NewAdam(0.01), append([]float64(nil), p0...)
				for _, g := range grads {
					a.BeginStep()
					a.Step(0, p, g)
				}
				return a, p
			}
			ga, gp := run(false)
			sa, sp := run(true)
			for _, c := range []struct {
				name      string
				got, want []float64
			}{{"params", sp, gp}, {"m", sa.m[0], ga.m[0]}, {"v", sa.v[0], ga.v[0]}} {
				for i := range c.want {
					if math.Float64bits(c.got[i]) != math.Float64bits(c.want[i]) {
						t.Fatalf("n=%d %s gradients: %s[%d] AVX2 %v, Go %v", n, kind, c.name, i, c.got[i], c.want[i])
					}
				}
			}
		}
	}
}

// TestLiteralLayerInfers: a layer written as a literal has no transposed
// copy, so Infer runs it on the Go loop instead of reading a nil copy.
func TestLiteralLayerInfers(t *testing.T) {
	onEachKernel(t, func(t *testing.T) {
		net := &Network{Layers: []*Dense{{In: 2, Out: 3, W: []float64{1, 2, 3, 4, 5, 6}, B: []float64{0.5, 0, -1}}}}
		got := net.Infer([]float64{1, -1}, net.NewArena())
		for o, w := range []float64{-0.5, -1, -2} {
			if got[o] != w {
				t.Fatalf("output %d: %v, want %v", o, got[o], w)
			}
		}
	})
}
