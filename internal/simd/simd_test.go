package simd

import (
	"math"
	"math/rand"
	"testing"
)

// TestExpMatchesMathExp holds Exp to math.Exp, bit for bit: uniform inputs
// across and past the kernel's [−708, 709], its bounds and their
// neighbours, the special values, and the small negative arguments of a
// softmax, at every offset of slices 1–9 long.
func TestExpMatchesMathExp(t *testing.T) {
	if !FMA {
		t.Log("CPUID reports no AVX2 with FMA: Exp is math.Exp's loop on this machine")
	}
	rng := rand.New(rand.NewSource(11))
	edges := []float64{-708, 709, math.Nextafter(-708, -1000), math.Nextafter(709, 1000), -745.2, 709.79,
		-1e-300, 5e-324, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64}
	draw := func() float64 {
		switch r := rng.Intn(10); {
		case r < 2:
			return edges[rng.Intn(len(edges))]
		case r < 5:
			return rng.Float64()*1500 - 750
		}
		return -rng.ExpFloat64() * 8
	}
	for trial := 0; trial < 50000; trial++ {
		v := make([]float64, 1+trial%9)
		for i := range v {
			v[i] = draw()
		}
		got := append([]float64(nil), v...)
		Exp(got)
		for i, x := range v {
			want := math.Exp(x)
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("exp(%v) [%x]: Exp %x, math.Exp %x", x, math.Float64bits(x), math.Float64bits(got[i]), math.Float64bits(want))
			}
		}
	}
}

// FuzzExp is TestExpMatchesMathExp on the fuzzer's inputs, four to a block.
func FuzzExp(f *testing.F) {
	f.Add(-1.0, 0.5, -708.0, 709.0, 3.0)
	f.Add(-745.2, 709.79, 1e-300, -0.0, 100.0)
	f.Fuzz(func(t *testing.T, a, b, c, d, e float64) {
		v := []float64{a, b, c, d, e}
		got := append([]float64(nil), v...)
		Exp(got)
		for i, x := range v {
			if want := math.Exp(x); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("exp(%v): Exp %x, math.Exp %x", x, math.Float64bits(got[i]), math.Float64bits(want))
			}
		}
	})
}
