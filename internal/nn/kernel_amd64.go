package nn

import "gemini/internal/simd"

// hasAVX2 reports whether this CPU and its OS run AVX2 (simd.AVX2).
var hasAVX2 = simd.AVX2

// The kernels, in kernel_amd64.s. Each trusts its caller for the lengths:
// wt holds len(x) rows of len(z) rounded up to 16, and every entry of rows
// indexes x; clampRowsAVX2's rows is at least len(v) long; w holds
// len(delta) rows of len(dIn), and every entry of rows indexes delta; gw is
// whole rows of in, x holds n rows of in, and delta n rows of out, the last
// cut after len(gw)/in entries; grad, m and v are at least len(p) long.

//go:noescape
func affineT(wt, b, x, z []float64, rows []int)

//go:noescape
func clampRowsAVX2(v []float64, rows []int, keep int) (n int)

//go:noescape
func inputGradAVX2(w, delta, dIn []float64, rows []int)

//go:noescape
func gradAVX2(gw, delta, x []float64, in, out, n int, scale float64)

//go:noescape
func transposeAVX2(w, wt []float64, in, stride int) (sum float64)

//go:noescape
func adamAVX2(p, grad, m, v []float64, k *[8]float64)
