package nn

import "fmt"

// Kernel selection. Where CPUID reports AVX2 (kernel_amd64.go), Dense.Forward,
// Network.Infer, Dense.backward, the ReLU clamp and Adam.Step run the AVX2
// kernels in kernel_amd64.s; everywhere else they run the Go loops, which are
// also the reference the tests hold the kernels to. Both produce the same bits
// (DESIGN.md §10), so nothing a user sets chooses between them.

// useAVX2 selects the AVX2 kernels. It starts as what CPUID reports; only
// SetSIMD changes it.
var useAVX2 = hasAVX2

// HasSIMD reports whether CPUID offers the AVX2 kernels on this machine.
func HasSIMD() bool { return hasAVX2 }

// SetSIMD selects the AVX2 kernels (on, where HasSIMD) or the Go loops (off)
// for every network in the process, and returns the previous selection, so
// defer SetSIMD(SetSIMD(false)) runs a test on the Go loops. Tests use it to
// hold both paths to one golden; nothing may train or infer while it runs.
func SetSIMD(on bool) (prev bool) {
	prev = useAVX2
	useAVX2 = on && hasAVX2
	return prev
}

// tStride is the row length of a layer's transposed weights: Out rounded up
// to the AVX2 forward kernel's 16-lane block.
func tStride(out int) int { return (out + 15) &^ 15 }

// transposeW copies W into wt, the forward kernel's input-major copy:
// wt[i·tStride(Out)+o] = W[o·In+i], the padding left at zero. Every writer of
// W calls it after writing: newLayer (so NewDense and Load) and Trainer.Fit
// after each optimizer step. wt is nil, and this does nothing, where the CPU
// has no AVX2. Rows go four at a time, so each store fills four neighbouring
// entries of a wt row: one at a time, the strided stores took 17 % of
// training the paper's 128-wide layers, against 7 %.
func (d *Dense) transposeW() {
	if d.wt == nil {
		return
	}
	s, in := tStride(d.Out), d.In
	o := 0
	for ; o+4 <= d.Out; o += 4 {
		r0, r1, r2, r3 := d.W[o*in:][:in], d.W[(o+1)*in:][:in], d.W[(o+2)*in:][:in], d.W[(o+3)*in:][:in]
		for i := range r0 {
			t := d.wt[i*s+o:][:4]
			t[0], t[1], t[2], t[3] = r0[i], r1[i], r2[i], r3[i]
		}
	}
	for ; o < d.Out; o++ {
		for i, w := range d.W[o*in:][:in] {
			d.wt[i*s+o] = w
		}
	}
}

// affine writes z = W·x + b through the selected kernel. Both kernels read
// exactly In inputs, so any other width panics: a shorter x would drop the
// weights of the missing columns. A Dense written as a literal rather than
// built by NewDense or Load has no transposed copy and runs the Go loop.
func (d *Dense) affine(x, z []float64) {
	if len(x) != d.In {
		panic(fmt.Sprintf("nn: %d inputs to a %d-input layer", len(x), d.In))
	}
	if useAVX2 && d.wt != nil {
		affineT(d.wt, d.B, x, z)
		return
	}
	affineRows(d.W, d.B, d.In, x, z)
}
