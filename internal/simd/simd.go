// Package simd is what the AVX2 kernels of several packages share: which
// vector instructions this CPU and its OS run, and Exp, math.Exp over a
// slice four elements at a time with its bits.
package simd

import "math"

// Exp sets v[i] = math.Exp(v[i]) for every i. Where the CPU has AVX2 and FMA,
// math.Exp's amd64 kernel takes its FMA path; the AVX2 kernel runs that
// path's instructions four lanes at a time for every block of four inputs in
// [−708, 709], where the path has no branch, and leaves the rest to
// math.Exp, so the bits are math.Exp's everywhere.
func Exp(v []float64) {
	for i := 0; i < len(v); {
		if FMA {
			i += expAVX2(v[i:])
		}
		if i < len(v) {
			v[i] = math.Exp(v[i])
			i++
		}
	}
}
