package nn

import (
	"fmt"
	"math"
)

// Kernel selection. Where CPUID reports AVX2 (kernel_amd64.go), the forward
// pass (Network.Infer and Trainer.Fit's), the input gradient
// (Dense.propagate), the weight-gradient sums (Dense.accumulate), the ReLU
// clamp with its row list, the transposed copy and Adam's step run the AVX2
// kernels in kernel_amd64.s; everywhere else they run the Go loops, which
// are also the reference the tests hold the kernels to. Both produce the
// same bits (DESIGN.md §10), so nothing a user sets chooses between them.
// The scaler, Argmax, Softmax, the bias sums and the ReLU clamp of a layer's
// last len % 4 units have only their Go loops.

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
// wt[i·tStride(Out)+o] = W[o·In+i], the padding left at zero, and sets
// sparse. Every writer of W calls it after writing: newLayer (so NewDense and
// Load) and Trainer.Fit when it returns (during a Fit, each worker keeps a
// copy of its own). wt is nil, and this does nothing, where the CPU has no
// AVX2.
func (d *Dense) transposeW() {
	if d.wt != nil {
		d.sparse = d.transposeInto(d.wt)
	}
}

// transposeInto writes W's input-major copy into wt: the AVX2 kernel moves
// the blocks of four rows by four inputs, and the loops below the last rows
// and inputs it leaves. It returns whether the forward kernel may skip the
// layer's ±0 inputs with the bits of the dense sum: every weight is finite,
// and no bias is −0 or non-finite.
//
// A skipped input adds w·(±0) = ±0 to its outputs' sums, which needs w
// finite (0·∞ is NaN). Under round-to-nearest z + (±0) = z unless z is −0,
// and a sum is −0 only when both addends are, so a sum that starts at a
// bias other than −0 is never −0. A non-finite bias could only reach z
// unchanged where every input is skipped; a signalling NaN would then keep
// the bit an add quiets, so biases must be finite too.
func (d *Dense) transposeInto(wt []float64) (sparse bool) {
	s, in := tStride(d.Out), d.In
	if in == 0 || d.Out == 0 {
		return false
	}
	w := d.W[:d.Out*in]
	_ = wt[(in-1)*s+d.Out-1]
	sum := transposeAVX2(w, wt, in, s)
	for o := d.Out &^ 3; o < d.Out; o++ {
		for i, x := range w[o*in:][:in] {
			wt[i*s+o] = x
			sum += x - x
		}
	}
	for i := in &^ 3; i < in; i++ {
		for o := 0; o < d.Out&^3; o++ {
			x := w[o*in+i]
			wt[i*s+o] = x
			sum += x - x
		}
	}
	for _, b := range d.B {
		sum += b - b
		if math.Float64bits(b) == 1<<63 {
			return false
		}
	}
	return sum == 0
}

// affine writes z = W·x + b through the selected kernel: the AVX2 kernel over
// the transposed weights wt, which the layer (or, in a Fit, a worker's copy
// of them) passes, visiting the inputs rows lists, or the Go loop where wt
// is nil, which reads every input and ignores rows. Both read exactly In
// inputs, so any other width panics: a shorter x would drop the weights of
// the missing columns. A Dense written as a literal rather than built by
// NewDense or Load has no transposed copy and runs the Go loop.
//
// The AVX2 kernel is input-major: each input it visits costs a broadcast and
// a load, multiply and add per four outputs, and rows is every input of the
// network's first layer and what the layer below's activate listed for the
// others. The Go loop is row-major, where a zero input is one column of
// every row and skipping it does not pay, so it sums densely; both give the
// same bits wherever rows leaves out only ±0 inputs and the layer's guard
// (transposeInto) holds. rows must index x: the kernel does not check.
func (d *Dense) affine(wt, x, z []float64, rows []int) {
	if len(x) != d.In {
		panic(fmt.Sprintf("nn: %d inputs to a %d-input layer", len(x), d.In))
	}
	if useAVX2 && wt != nil {
		affineT(wt, d.B, x, z, rows)
		return
	}
	affineRows(d.W, d.B, d.In, x, z)
}

// activate applies the layer's activation to its output y in place and,
// where the AVX2 kernels run and rows is not nil, writes into rows, and
// returns, the list of y's entries the layer above visits (affine): those
// other than ±0 (NaN is kept) where skip, all of them otherwise. Under ReLU
// the clamp and the list of all but the last len(y) % 4 entries are one
// pass (clampRowsAVX2); the rest, and an Identity layer's whole list, take
// nonZero's bit test. Neither branches on the data: with an if, half of a
// ReLU layer's outputs would mispredict.
func (d *Dense) activate(y []float64, rows []int, skip bool) []int {
	relu := d.Act == ReLU
	if !useAVX2 || rows == nil {
		if relu {
			clampNegative(y)
		}
		return nil
	}
	keep, all := 15, 1
	if skip {
		keep, all = 0, 0
	}
	rows = rows[:len(y)]
	n, i := 0, 0
	if relu {
		i = len(y) &^ 3
		n = clampRowsAVX2(y, rows, keep)
		clampNegative(y[i:])
	}
	for ; i < len(y); i++ {
		rows[n] = i
		n += nonZero(y[i]) | all
	}
	return rows[:n]
}

// denseRows is the list of every input 0 to n−1, for a layer that visits
// them all.
func denseRows(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}
