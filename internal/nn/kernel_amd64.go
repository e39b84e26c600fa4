package nn

// hasAVX2 reports whether this CPU and its OS run AVX2, by CPUID: leaf 1
// says the OS has enabled XSAVE (ECX bit 27) and the CPU has AVX (bit 28),
// XCR0 says the OS saves the SSE and AVX register state (bits 1 and 2), and
// leaf 7 says AVX2 (EBX bit 5).
var hasAVX2 = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}()

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// The kernels, in kernel_amd64.s. Each trusts its caller for the lengths:
// wt holds len(x) rows of len(z) rounded up to 16, w and gradW hold len(gradB)
// rows of len(x), every entry of rows indexes dOut and gradB, dIn is empty or
// len(x) long, and grad, m and v are at least len(p) long.

//go:noescape
func affineT(wt, b, x, z []float64)

//go:noescape
func backwardAVX2(w, gradW, gradB, x, dOut, dIn []float64, rows []int)

//go:noescape
func adamAVX2(p, grad, m, v []float64, k *[8]float64)

//go:noescape
func clampAVX2(v []float64)
