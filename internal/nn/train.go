package nn

import (
	"errors"
	"math"
	"math/rand"
)

// Loss computes the scalar loss and the gradient of the loss w.r.t. the
// network's raw output for one sample. The gradient is written into dOut.
type Loss interface {
	// LossAndGrad returns the loss for (output, target) and fills dOut.
	// target's meaning depends on the loss (class index or regression value).
	LossAndGrad(output []float64, target float64, dOut []float64) float64
}

// CrossEntropy is softmax + sparse categorical cross-entropy: targets are
// class indices; the network's output layer produces raw logits.
type CrossEntropy struct {
	probs []float64
}

// LossAndGrad implements Loss.
func (c *CrossEntropy) LossAndGrad(output []float64, target float64, dOut []float64) float64 {
	if cap(c.probs) < len(output) {
		c.probs = make([]float64, len(output))
	}
	p := c.probs[:len(output)]
	Softmax(output, p)
	cls := int(target)
	if cls < 0 {
		cls = 0
	}
	if cls >= len(output) {
		cls = len(output) - 1
	}
	for i := range dOut {
		dOut[i] = p[i]
	}
	dOut[cls] -= 1
	const tiny = 1e-12
	return -math.Log(p[cls] + tiny)
}

// MSE is mean squared error for single-output regression networks.
type MSE struct{}

// LossAndGrad implements Loss.
func (MSE) LossAndGrad(output []float64, target float64, dOut []float64) float64 {
	d := output[0] - target
	dOut[0] = 2 * d
	for i := 1; i < len(dOut); i++ {
		dOut[i] = 0
	}
	return d * d
}

// steppable lets the trainer advance optimizers with a shared step counter.
type steppable interface {
	BeginStep()
}

// Trainer runs mini-batch gradient training of a Network.
type Trainer struct {
	Net       *Network
	Loss      Loss
	Opt       Optimizer
	BatchSize int
	Epochs    int
	Seed      int64
	// WeightDecay adds L2 regularization: the loss gradient gains
	// WeightDecay·w per weight (biases are not decayed).
	WeightDecay float64

	// OnEpoch, if set, is called after each epoch with the epoch index and
	// mean training loss; returning false stops training early.
	OnEpoch func(epoch int, loss float64) bool
}

// Fit trains the network on inputs X and targets Y (class index or
// regression value per sample). It returns the mean loss of the final epoch.
func (t *Trainer) Fit(X [][]float64, Y []float64) (float64, error) {
	if len(X) == 0 || len(X) != len(Y) {
		return 0, errors.New("nn: bad training set")
	}
	if t.BatchSize <= 0 {
		t.BatchSize = 32
	}
	if t.Epochs <= 0 {
		t.Epochs = 1
	}
	rng := rand.New(rand.NewSource(t.Seed))
	order := make([]int, len(X))
	for i := range order {
		order[i] = i
	}
	dOut := make([]float64, t.Net.OutDim())
	finalLoss := 0.0

	for epoch := 0; epoch < t.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss := 0.0
		for start := 0; start < len(order); start += t.BatchSize {
			end := start + t.BatchSize
			if end > len(order) {
				end = len(order)
			}
			t.Net.ZeroGrad()
			for _, idx := range order[start:end] {
				out := t.Net.Forward(X[idx])
				epochLoss += t.Loss.LossAndGrad(out, Y[idx], dOut)
				t.Net.Backward(dOut)
			}
			// Average gradients over the batch and step.
			scale := 1.0 / float64(end-start)
			if s, ok := t.Opt.(steppable); ok {
				s.BeginStep()
			}
			for li, l := range t.Net.Layers {
				for i := range l.gradW {
					l.gradW[i] *= scale
					if t.WeightDecay > 0 {
						l.gradW[i] += t.WeightDecay * l.W[i]
					}
				}
				for i := range l.gradB {
					l.gradB[i] *= scale
				}
				t.Opt.Step(2*li, l.W, l.gradW)
				t.Opt.Step(2*li+1, l.B, l.gradB)
				l.transposeW()
			}
		}
		finalLoss = epochLoss / float64(len(order))
		if t.OnEpoch != nil && !t.OnEpoch(epoch, finalLoss) {
			break
		}
	}
	return finalLoss, nil
}

// ClassifyAccuracy evaluates a classifier network: the fraction of samples
// whose argmax prediction is within tol classes of the target class (tol 0
// means exact). This matches the paper's "prediction error happens when the
// predicted bucket differs by more than the threshold" definition.
func ClassifyAccuracy(net *Network, X [][]float64, Y []float64, tol int) float64 {
	if len(X) == 0 {
		return 0
	}
	hits := 0
	for i, x := range X {
		pred := Argmax(net.Forward(x))
		d := pred - int(Y[i])
		if d < 0 {
			d = -d
		}
		if d <= tol {
			hits++
		}
	}
	return float64(hits) / float64(len(X))
}

// RegressAccuracy evaluates a single-output regression network: the fraction
// of samples with |prediction − target| <= tol.
func RegressAccuracy(net *Network, X [][]float64, Y []float64, tol float64) float64 {
	if len(X) == 0 {
		return 0
	}
	hits := 0
	for i, x := range X {
		if math.Abs(net.Forward(x)[0]-Y[i]) <= tol {
			hits++
		}
	}
	return float64(hits) / float64(len(X))
}
