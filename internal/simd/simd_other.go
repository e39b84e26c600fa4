//go:build !amd64

package simd

// AVX2 and FMA are false off amd64, where nothing calls the kernel.
const AVX2, FMA = false, false

func expAVX2(v []float64) int { panic("simd: no kernels on this architecture") }
