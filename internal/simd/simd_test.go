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

// TestLogMatchesMathLog holds Log to math.Log, bit for bit: uniform
// significands over exponents from the subnormals to the largest, values
// around 1 and √2/2, and the special values, at every offset of slices 1–9
// long.
func TestLogMatchesMathLog(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	edges := []float64{1, math.Nextafter(1, 0), math.Nextafter(1, 2), math.Sqrt2 / 2, math.Nextafter(math.Sqrt2/2, 0),
		math.Nextafter(math.Sqrt2/2, 1), 5e-324, math.SmallestNonzeroFloat64 * 3, 2.2250738585072014e-308, math.MaxFloat64,
		0, math.Copysign(0, -1), -1, math.Inf(1), math.Inf(-1), math.NaN()}
	draw := func() float64 {
		switch r := rng.Intn(10); {
		case r < 2:
			return edges[rng.Intn(len(edges))]
		case r < 4:
			return 0.5 + rng.Float64()
		}
		return math.Ldexp(rng.Float64(), rng.Intn(2100)-1074)
	}
	for trial := 0; trial < 50000; trial++ {
		v := make([]float64, 1+trial%9)
		for i := range v {
			v[i] = draw()
		}
		got := append([]float64(nil), v...)
		Log(got)
		for i, x := range v {
			if want := math.Log(x); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("log(%v) [%x]: Log %x, math.Log %x", x, math.Float64bits(x), math.Float64bits(got[i]), math.Float64bits(want))
			}
		}
	}
}

// FuzzLog is TestLogMatchesMathLog on the fuzzer's inputs.
func FuzzLog(f *testing.F) {
	f.Add(1.0, 0.5, 0.7071067811865476, 1e300, 5e-324)
	f.Add(0.0, -1.0, 2.0, 3.0, 4.0)
	f.Fuzz(func(t *testing.T, a, b, c, d, e float64) {
		v := []float64{a, b, c, d, e}
		got := append([]float64(nil), v...)
		Log(got)
		for i, x := range v {
			if want := math.Log(x); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("log(%v): Log %x, math.Log %x", x, math.Float64bits(got[i]), math.Float64bits(want))
			}
		}
	})
}

// log1pEdges are the inputs where math.Log1p changes path or a kernel lane
// could round differently: 0, the subnormals, 2⁻²⁹ and 2⁻⁵⁴, √2−1 and the
// floats beside it, where the normalised u meets √2, 1 (k = 0 against
// k > 0), 2⁵³ and beside it, the largest float, the special values, and
// the x whose 1+x is a power of two (f = 0) or 1 to 4 ulps below one (the
// first three normalise to iu = 0).
var log1pEdges = []float64{
	0, math.Copysign(0, -1), 5e-324, 2.2250738585072014e-308, 0x1p-29, math.Nextafter(0x1p-29, 0), 0x1p-54,
	math.Sqrt2 - 1, math.Nextafter(math.Sqrt2-1, 0), math.Nextafter(math.Sqrt2-1, 1),
	0.41421356237309503, 0.41421356237309515, math.Sqrt2/2 - 1, -0.5, -1, math.Nextafter(-1, 0), -2,
	1, math.Nextafter(1, 0), math.Nextafter(1, 2), 3, math.Nextafter(3, 0), 7, 1023, 0x1p52 - 1, 0x1p52 - 1.5,
	0x1p53, math.Nextafter(0x1p53, 0), math.Nextafter(0x1p53, math.Inf(1)), math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
	1 - 0x1p-52, 1 - 0x2p-52, 1 - 0x3p-52, 1 - 0x4p-52, 3 - 0x1p-51, 3 - 0x3p-51, 3 - 0x4p-51,
}

// TestLog1pMatchesMathLog1p holds Log1p to math.Log1p, bit for bit: the
// edges above, uniform significands over exponents from the subnormals to
// the largest (both signs), integers and counts as the scaler's columns
// hold them, and values on both sides of √2−1, at every offset of slices
// 1–9 long.
func TestLog1pMatchesMathLog1p(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	draw := func() float64 {
		switch r := rng.Intn(10); {
		case r < 2:
			return log1pEdges[rng.Intn(len(log1pEdges))]
		case r < 4:
			return rng.Float64() * 0.83 // both paths of [0, 2(√2−1))
		case r < 6:
			return float64(rng.Intn(100000))
		case r < 7:
			return -math.Ldexp(rng.Float64(), rng.Intn(60)-58)
		}
		return math.Ldexp(rng.Float64(), rng.Intn(2100)-1074)
	}
	for trial := 0; trial < 50000; trial++ {
		v := make([]float64, 1+trial%9)
		for i := range v {
			v[i] = draw()
		}
		got := append([]float64(nil), v...)
		Log1p(got)
		for i, x := range v {
			if want := math.Log1p(x); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("log1p(%v) [%x]: Log1p %x, math.Log1p %x", x, math.Float64bits(x), math.Float64bits(got[i]), math.Float64bits(want))
			}
		}
	}
	// Every edge in every lane of a block whose other lanes the kernel takes.
	for _, x := range log1pEdges {
		for lane := 0; lane < 4; lane++ {
			v := []float64{5, 0.25, 1e6, 2}
			v[lane] = x
			got := append([]float64(nil), v...)
			Log1p(got)
			for i, y := range v {
				if want := math.Log1p(y); math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("log1p(%v) in lane %d of %v: Log1p %x, math.Log1p %x", y, lane, v, math.Float64bits(got[i]), math.Float64bits(want))
				}
			}
		}
	}
}

// FuzzLog1p is TestLog1pMatchesMathLog1p on the fuzzer's inputs.
func FuzzLog1p(f *testing.F) {
	f.Add(1.0, 0.5, 0.41421356237309503, 1e300, 5e-324)
	f.Add(0.0, -1.0, 2.0, 9007199254740992.0, 0.1)
	f.Fuzz(func(t *testing.T, a, b, c, d, e float64) {
		v := []float64{a, b, c, d, e}
		got := append([]float64(nil), v...)
		Log1p(got)
		for i, x := range v {
			if want := math.Log1p(x); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("log1p(%v): Log1p %x, math.Log1p %x", x, math.Float64bits(got[i]), math.Float64bits(want))
			}
		}
	})
}
