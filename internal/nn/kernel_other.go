//go:build !amd64

package nn

// hasAVX2 is false off amd64: the Go loops are the only path there, and the
// kernels below are never called.
const hasAVX2 = false

func affineT(wt, b, x, z []float64, rows []int) { panic("nn: no SIMD kernels on this architecture") }

func clampRowsAVX2(v []float64, rows []int, keep int) (n int) {
	panic("nn: no SIMD kernels on this architecture")
}

func inputGradAVX2(w, delta, dIn []float64, rows []int) {
	panic("nn: no SIMD kernels on this architecture")
}

func gradAVX2(gw, delta, x []float64, in, out, n int, scale float64) {
	panic("nn: no SIMD kernels on this architecture")
}

func adamAVX2(p, grad, m, v []float64, k *[8]float64) {
	panic("nn: no SIMD kernels on this architecture")
}

func transposeAVX2(w, wt []float64, in, stride int) (sum float64) {
	panic("nn: no SIMD kernels on this architecture")
}
