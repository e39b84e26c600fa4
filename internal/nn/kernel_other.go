//go:build !amd64

package nn

// hasAVX2 is false off amd64: the Go loops are the only path there, and the
// kernels below are never called.
const hasAVX2 = false

func affineT(wt, b, x, z []float64) { panic("nn: no SIMD kernels on this architecture") }

func backwardAVX2(w, gradW, gradB, x, dOut, dIn []float64, rows []int) {
	panic("nn: no SIMD kernels on this architecture")
}

func adamAVX2(p, grad, m, v []float64, k *[8]float64) {
	panic("nn: no SIMD kernels on this architecture")
}

func clampAVX2(v []float64) { panic("nn: no SIMD kernels on this architecture") }
