package nn

import "fmt"

// Kernel selection. Where CPUID reports AVX2 (kernel_amd64.go), Dense.Forward,
// Network.Infer, the input gradient (Dense.propagate), the gradient sums
// (Dense.accumulate), the ReLU clamp and Adam's step run the AVX2
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
// when it returns (during a Fit, each worker keeps a copy of its own). wt is
// nil, and this does nothing, where the CPU has no AVX2.
func (d *Dense) transposeW() {
	if d.wt != nil {
		d.transposeInto(d.wt)
	}
}

// transposeInto writes W's input-major copy into wt: the AVX2 kernel moves
// the blocks of four rows by four inputs, and the loops below the last rows
// and inputs it leaves.
func (d *Dense) transposeInto(wt []float64) {
	s, in := tStride(d.Out), d.In
	if in == 0 || d.Out == 0 {
		return
	}
	w := d.W[:d.Out*in]
	_ = wt[(in-1)*s+d.Out-1]
	transposeAVX2(w, wt, in, s)
	for o := d.Out &^ 3; o < d.Out; o++ {
		for i, x := range w[o*in:][:in] {
			wt[i*s+o] = x
		}
	}
	for i := in &^ 3; i < in; i++ {
		for o := 0; o < d.Out&^3; o++ {
			wt[i*s+o] = w[o*in+i]
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
	d.affineWith(d.wt, x, z)
}

// affineWith is affine through the transposed weights wt, which Trainer.Fit
// passes a worker's own copy of; nil runs the Go loop.
func (d *Dense) affineWith(wt, x, z []float64) {
	if useAVX2 && wt != nil {
		affineT(wt, d.B, x, z)
		return
	}
	affineRows(d.W, d.B, d.In, x, z)
}
