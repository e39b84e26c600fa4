package nn

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchNet is the default experiment architecture: 15 features in, two
// 48-wide relu layers, 61 per-ms output buckets.
func benchNet() (*Network, []float64) {
	net := NewMLP(15, []int{48, 48}, 61, 1)
	x := make([]float64, 15)
	rng := rand.New(rand.NewSource(2))
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return net, x
}

func BenchmarkForward(b *testing.B) {
	net, x := benchNet()
	p := newPass(net)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
	}
}

func BenchmarkForwardBackward(b *testing.B) {
	net, x := benchNet()
	loss := &CrossEntropy{}
	dOut := make([]float64, net.OutDim())
	p := newPass(net)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ZeroGrad()
		out := p.Forward(x)
		loss.LossAndGrad(out, 7, dOut)
		p.Backward(dOut)
	}
}

func BenchmarkTrainEpoch(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const n = 512
	X := make([][]float64, n)
	Y := make([]float64, n)
	for i := range X {
		row := make([]float64, 15)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		X[i] = row
		Y[i] = float64(i % 61)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				net := NewMLP(15, []int{48, 48}, 61, int64(i))
				tr := &Trainer{Net: net, Loss: &CrossEntropy{}, Opt: NewAdam(1e-3), BatchSize: 32, Epochs: 1, Seed: 4, Workers: workers}
				if _, err := tr.Fit(X, Y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSoftmax(b *testing.B) {
	logits := make([]float64, 61)
	out := make([]float64, 61)
	rng := rand.New(rand.NewSource(5))
	for i := range logits {
		logits[i] = rng.NormFloat64() * 3
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Softmax(logits, out)
	}
}
