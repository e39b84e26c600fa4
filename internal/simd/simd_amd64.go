package simd

// AVX2 reports whether this CPU and its OS run AVX2, by CPUID: leaf 1 says
// the OS has enabled XSAVE (ECX bit 27) and the CPU has AVX (bit 28), XCR0
// says the OS saves the SSE and AVX register state (bits 1 and 2), and leaf
// 7 says AVX2 (EBX bit 5).
var AVX2 = func() bool {
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

// FMA reports whether the CPU has FMA (CPUID leaf 1, ECX bit 12) beside
// AVX2; math.Exp takes its FMA path on such a CPU.
var FMA = func() bool {
	_, _, ecx1, _ := cpuid(1, 0)
	return AVX2 && ecx1&(1<<12) != 0
}()

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func expAVX2(v []float64) int
