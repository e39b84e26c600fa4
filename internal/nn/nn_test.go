package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"os"
	"testing"
	"testing/quick"
)

func TestDenseForwardKnownWeights(t *testing.T) {
	d := NewDense(2, 2, Identity, rand.New(rand.NewSource(1)))
	copy(d.W, []float64{1, 2, 3, 4})
	copy(d.B, []float64{0.5, -0.5})
	d.transposeW()
	out := forward(d, []float64{1, 1})
	if math.Abs(out[0]-3.5) > 1e-12 || math.Abs(out[1]-6.5) > 1e-12 {
		t.Errorf("out = %v, want [3.5 6.5]", out)
	}
}

func TestReLUClampsNegative(t *testing.T) {
	d := NewDense(1, 1, ReLU, rand.New(rand.NewSource(1)))
	d.W[0] = -1
	d.B[0] = 0
	d.transposeW()
	if out := forward(d, []float64{5}); out[0] != 0 {
		t.Errorf("relu(-5) = %v", out[0])
	}
	if out := forward(d, []float64{-5}); out[0] != 5 {
		t.Errorf("relu(5) = %v", out[0])
	}
}

// Gradient check: numerical vs analytical gradients on a small network.
func TestGradientCheck(t *testing.T) {
	net := NewMLP(3, []int{5, 4}, 2, 42)
	loss := &CrossEntropy{}
	x := []float64{0.3, -0.7, 1.2}
	target := 1.0
	dOut := make([]float64, 2)
	p := newPass(net)

	net.ZeroGrad()
	out := p.Forward(x)
	loss.LossAndGrad(out, target, dOut)
	p.Backward(dOut)

	const eps = 1e-6
	for li, l := range net.Layers {
		for wi := 0; wi < len(l.W); wi += 7 { // sample every 7th weight
			orig := l.W[wi]
			l.W[wi] = orig + eps
			l.transposeW()
			lossPlus := loss.LossAndGrad(p.Forward(x), target, dOut)
			l.W[wi] = orig - eps
			l.transposeW()
			lossMinus := loss.LossAndGrad(p.Forward(x), target, dOut)
			l.W[wi] = orig
			l.transposeW()
			numGrad := (lossPlus - lossMinus) / (2 * eps)
			anaGrad := l.gradW[wi]
			if math.Abs(numGrad-anaGrad) > 1e-4*(1+math.Abs(numGrad)) {
				t.Fatalf("layer %d w[%d]: numerical %v vs analytical %v", li, wi, numGrad, anaGrad)
			}
		}
	}
}

func TestGradientCheckMSE(t *testing.T) {
	net := NewMLP(2, []int{6}, 1, 7)
	loss := MSE{}
	x := []float64{0.5, -1.5}
	target := 2.0
	dOut := make([]float64, 1)
	p := newPass(net)

	net.ZeroGrad()
	loss.LossAndGrad(p.Forward(x), target, dOut)
	p.Backward(dOut)

	const eps = 1e-6
	l := net.Layers[0]
	for wi := range l.W {
		orig := l.W[wi]
		l.W[wi] = orig + eps
		l.transposeW()
		lp := loss.LossAndGrad(p.Forward(x), target, dOut)
		l.W[wi] = orig - eps
		l.transposeW()
		lm := loss.LossAndGrad(p.Forward(x), target, dOut)
		l.W[wi] = orig
		l.transposeW()
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-l.gradW[wi]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("w[%d]: numerical %v vs analytical %v", wi, num, l.gradW[wi])
		}
	}
}

func TestSoftmaxProperties(t *testing.T) {
	logits := []float64{1, 2, 3, 1000} // large value must not overflow
	out := make([]float64, 4)
	Softmax(logits, out)
	sum := 0.0
	for _, p := range out {
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("bad probability %v", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %v", sum)
	}
	if Argmax(out) != 3 {
		t.Errorf("argmax = %d", Argmax(out))
	}
}

// Property: softmax output always sums to 1 for finite inputs.
func TestSoftmaxSumProperty(t *testing.T) {
	f := func(a, b, c int16) bool {
		logits := []float64{float64(a) / 100, float64(b) / 100, float64(c) / 100}
		out := make([]float64, 3)
		Softmax(logits, out)
		sum := out[0] + out[1] + out[2]
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestArgmax(t *testing.T) {
	if Argmax([]float64{3, 1, 2}) != 0 {
		t.Error("argmax first")
	}
	if Argmax([]float64{1, 5, 2}) != 1 {
		t.Error("argmax middle")
	}
	if Argmax([]float64{1, 2, 9}) != 2 {
		t.Error("argmax last")
	}
	// Among equal maxima the first wins, and +0 and −0 are equal.
	if got := Argmax([]float64{1, 7, 3, 7, 7}); got != 1 {
		t.Errorf("argmax of ties = %d, want 1", got)
	}
	negZero := math.Copysign(0, -1)
	for _, v := range [][]float64{{-1, 0, negZero, -2}, {-1, negZero, 0, -2}} {
		if got := Argmax(v); got != 1 {
			t.Errorf("Argmax(%v) = %d, want 1", v, got)
		}
	}
}

// The classifier must learn a simple separable problem.
func TestTrainClassifierXOR(t *testing.T) {
	X := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	Y := []float64{0, 1, 1, 0}
	// Replicate for batching.
	var Xs [][]float64
	var Ys []float64
	for i := 0; i < 64; i++ {
		Xs = append(Xs, X[i%4])
		Ys = append(Ys, Y[i%4])
	}
	net := NewMLP(2, []int{16, 16}, 2, 3)
	tr := &Trainer{Net: net, Loss: &CrossEntropy{}, Opt: NewAdam(0.01), BatchSize: 8, Epochs: 200, Seed: 5}
	if _, err := tr.Fit(Xs, Ys); err != nil {
		t.Fatal(err)
	}
	arena := net.NewArena()
	for i, x := range X {
		if got := Argmax(net.Infer(x, arena)); got != int(Y[i]) {
			t.Errorf("XOR%v = class %d, want %v", x, got, Y[i])
		}
	}
}

func TestTrainRegressorLine(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var X [][]float64
	var Y []float64
	for i := 0; i < 400; i++ {
		x := rng.Float64()*2 - 1
		X = append(X, []float64{x})
		Y = append(Y, 3*x+0.5)
	}
	net := NewMLP(1, []int{16}, 1, 9)
	tr := &Trainer{Net: net, Loss: MSE{}, Opt: NewRMSprop(0.005), BatchSize: 16, Epochs: 120, Seed: 2}
	loss, err := tr.Fit(X, Y)
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.01 {
		t.Errorf("final MSE = %v too high", loss)
	}
	hits := 0
	arena := net.NewArena()
	for i, x := range X {
		if math.Abs(net.Infer(x, arena)[0]-Y[i]) <= 0.25 {
			hits++
		}
	}
	if acc := float64(hits) / float64(len(X)); acc < 0.95 {
		t.Errorf("regression accuracy = %v", acc)
	}
}

func TestTrainerErrors(t *testing.T) {
	net := NewMLP(1, nil, 1, 1)
	tr := &Trainer{Net: net, Loss: MSE{}, Opt: NewAdam(0.1)}
	if _, err := tr.Fit(nil, nil); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := tr.Fit([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("mismatched set accepted")
	}
	if _, err := tr.Fit([][]float64{{1}, {1, 2}}, []float64{1, 2}); err == nil {
		t.Error("a two-wide sample accepted by a one-input network")
	}
}

func TestTrainerEarlyStop(t *testing.T) {
	net := NewMLP(1, nil, 1, 1)
	epochs := 0
	tr := &Trainer{
		Net: net, Loss: MSE{}, Opt: NewAdam(0.01), Epochs: 50, BatchSize: 2,
		OnEpoch: func(e int, _ float64) bool { epochs = e + 1; return e < 4 },
	}
	if _, err := tr.Fit([][]float64{{1}, {2}}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if epochs != 5 {
		t.Errorf("ran %d epochs, want early stop after 5", epochs)
	}
}

func TestTrainingDeterministic(t *testing.T) {
	build := func() float64 {
		rng := rand.New(rand.NewSource(4))
		var X [][]float64
		var Y []float64
		for i := 0; i < 100; i++ {
			x := rng.Float64()
			X = append(X, []float64{x})
			Y = append(Y, float64(int(x*4)%3))
		}
		net := NewMLP(1, []int{8}, 3, 10)
		tr := &Trainer{Net: net, Loss: &CrossEntropy{}, Opt: NewAdam(0.01), BatchSize: 10, Epochs: 10, Seed: 20}
		loss, _ := tr.Fit(X, Y)
		return loss
	}
	if a, b := build(), build(); a != b {
		t.Errorf("training not deterministic: %v vs %v", a, b)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (p-3)^2 via Adam.
	a := NewAdam(0.1)
	p := []float64{0}
	for i := 0; i < 500; i++ {
		g := []float64{2 * (p[0] - 3)}
		a.BeginStep()
		a.Step(0, p, g)
	}
	if math.Abs(p[0]-3) > 0.05 {
		t.Errorf("Adam converged to %v, want 3", p[0])
	}
}

func TestRMSpropConvergesOnQuadratic(t *testing.T) {
	r := NewRMSprop(0.05)
	p := []float64{-4}
	for i := 0; i < 800; i++ {
		g := []float64{2 * (p[0] - 1)}
		r.Step(0, p, g)
	}
	if math.Abs(p[0]-1) > 0.05 {
		t.Errorf("RMSprop converged to %v, want 1", p[0])
	}
}

func TestNumParams(t *testing.T) {
	net := NewMLP(3, []int{5}, 2, 1)
	want := 3*5 + 5 + 5*2 + 2
	if got := net.NumParams(); got != want {
		t.Errorf("NumParams = %d, want %d", got, want)
	}
	if net.InDim() != 3 || net.OutDim() != 2 {
		t.Errorf("dims = %d,%d", net.InDim(), net.OutDim())
	}
	if net.String() == "" {
		t.Error("empty String()")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	net := NewMLP(4, []int{8, 8}, 3, 77)
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.1, -0.2, 0.3, 0.9}
	a := net.Infer(x, net.NewArena())
	b := loaded.Infer(x, loaded.NewArena())
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("output %d differs after round trip: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	net := NewMLP(2, []int{4}, 2, 5)
	path := t.TempDir() + "/model.gob"
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 2}
	a, b := net.Infer(x, net.NewArena()), loaded.Infer(x, loaded.NewArena())
	if a[0] != b[0] || a[1] != b[1] {
		t.Error("file round trip mismatch")
	}
}

// LoadFile reads a network from a file path.
func LoadFile(path string) (*Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("junk accepted")
	}
	var buf bytes.Buffer
	_ = (&Network{}).Save(&buf)
	if _, err := Load(&buf); err == nil {
		t.Error("empty network accepted")
	}
	if _, err := LoadFile("/nonexistent/model.gob"); err == nil {
		t.Error("missing file accepted")
	}

	// Files whose weights have the right sizes but that cannot run.
	layer := func(in, out int, act Activation) layerSnapshot {
		return layerSnapshot{In: in, Out: out, Act: act, W: make([]float64, in*out), B: make([]float64, out)}
	}
	for name, s := range map[string]snapshot{
		"wider input than the layer below":    {Layers: []layerSnapshot{layer(4, 48, ReLU), layer(64, 3, Identity)}},
		"narrower input than the layer below": {Layers: []layerSnapshot{layer(4, 48, ReLU), layer(16, 3, Identity)}},
		"unknown activation":                  {Layers: []layerSnapshot{layer(4, 8, Activation(7)), layer(8, 3, Identity)}},
		"zero-width layer":                    {Layers: []layerSnapshot{layer(4, 0, ReLU), layer(0, 3, Identity)}},
	} {
		buf.Reset()
		if err := gob.NewEncoder(&buf).Encode(s); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&buf); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// A loaded network is built by the same constructor as a new one, so warm
// training continues from it exactly as it would from the network it was
// saved from.
func TestLoadedNetworkTrainsIdentically(t *testing.T) {
	onEachKernel(t, testLoadedNetworkTrainsIdentically)
}

func testLoadedNetworkTrainsIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	X := make([][]float64, 96)
	Y := make([]float64, len(X))
	for i := range X {
		X[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), 0, rng.NormFloat64()}
		Y[i] = float64(rng.Intn(5))
	}
	fit := func(net *Network, seed int64) {
		tr := &Trainer{Net: net, Loss: &CrossEntropy{}, Opt: NewAdam(0.01), BatchSize: 16, Epochs: 3, Seed: seed}
		if _, err := tr.Fit(X, Y); err != nil {
			t.Fatal(err)
		}
	}
	orig := NewMLP(4, []int{12, 9}, 5, 4)
	fit(orig, 1)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fit(orig, 2)
	fit(loaded, 2)
	for i, l := range orig.Layers {
		for j := range l.W {
			if math.Float64bits(l.W[j]) != math.Float64bits(loaded.Layers[i].W[j]) {
				t.Fatalf("layer %d W[%d]: %v after Load, %v without", i, j, loaded.Layers[i].W[j], l.W[j])
			}
		}
		for j := range l.B {
			if math.Float64bits(l.B[j]) != math.Float64bits(loaded.Layers[i].B[j]) {
				t.Fatalf("layer %d B[%d]: %v after Load, %v without", i, j, loaded.Layers[i].B[j], l.B[j])
			}
		}
	}
}

func TestScalerBasics(t *testing.T) {
	X := [][]float64{{0, 100}, {2, 300}, {4, 500}}
	s := FitScaler(X, nil)
	out := s.Transform([]float64{2, 300})
	if math.Abs(out[0]) > 1e-9 || math.Abs(out[1]) > 1e-9 {
		t.Errorf("mean row should standardize to 0: %v", out)
	}
	all := s.TransformAll(X)
	var m0 float64
	for _, r := range all {
		m0 += r[0]
	}
	if math.Abs(m0) > 1e-9 {
		t.Errorf("standardized mean = %v", m0/3)
	}
	// A scaler narrower than its input passes the extra columns through.
	narrow := FitScaler([][]float64{{0}, {2}}, nil)
	if out := narrow.Transform([]float64{2, -3.5, 1e9}); out[0] != 1 || out[1] != -3.5 || out[2] != 1e9 {
		t.Errorf("narrow scaler: %v, want [1 -3.5 1e+09]", out)
	}
}

func TestScalerLogColumns(t *testing.T) {
	X := [][]float64{{1}, {10}, {100}, {1000}}
	s := FitScaler(X, []bool{true})
	a := s.Transform([]float64{1})[0]
	b := s.Transform([]float64{1000})[0]
	if a >= 0 || b <= 0 {
		t.Errorf("log-scaled extremes: %v, %v", a, b)
	}
	// Negative inputs clamp to 0 before log1p.
	zero := s.Transform([]float64{0})[0]
	for _, x := range []float64{-5, -1, math.Copysign(0, -1)} {
		if v := s.Transform([]float64{x})[0]; math.Float64bits(v) != math.Float64bits(zero) {
			t.Errorf("Transform(%v) = %v, want Transform(0) = %v", x, v, zero)
		}
	}
}

func TestScalerConstantColumn(t *testing.T) {
	X := [][]float64{{7}, {7}, {7}}
	s := FitScaler(X, nil)
	if v := s.Transform([]float64{7})[0]; v != 0 {
		t.Errorf("constant column transform = %v", v)
	}
}

func TestScalerEmpty(t *testing.T) {
	s := FitScaler(nil, nil)
	out := s.Transform([]float64{1, 2})
	if out[0] != 1 || out[1] != 2 {
		t.Errorf("empty scaler should pass through: %v", out)
	}
}

func TestCrossEntropyClampsTarget(t *testing.T) {
	ce := &CrossEntropy{}
	dOut := make([]float64, 3)
	// Out-of-range targets must not panic.
	ce.LossAndGrad([]float64{1, 2, 3}, -5, dOut)
	ce.LossAndGrad([]float64{1, 2, 3}, 99, dOut)
}

func TestWeightDecayShrinksWeights(t *testing.T) {
	// Train on pure-noise labels: with strong L2 the weights must end up
	// smaller in norm than without.
	rng := rand.New(rand.NewSource(6))
	X := make([][]float64, 200)
	Y := make([]float64, 200)
	for i := range X {
		X[i] = []float64{rng.NormFloat64()}
		Y[i] = rng.NormFloat64()
	}
	norm := func(decay float64) float64 {
		net := NewMLP(1, []int{16}, 1, 13)
		tr := &Trainer{Net: net, Loss: MSE{}, Opt: NewAdam(0.01),
			BatchSize: 20, Epochs: 40, Seed: 3, WeightDecay: decay}
		if _, err := tr.Fit(X, Y); err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, l := range net.Layers {
			for _, w := range l.W {
				sum += w * w
			}
		}
		return sum
	}
	plain := norm(0)
	decayed := norm(0.1)
	if decayed >= plain {
		t.Errorf("weight decay did not shrink weights: %v >= %v", decayed, plain)
	}
}

// Warm-start: continuing training on the same network after a distribution
// shift adapts it — the "keep track of measured latencies in the past"
// online-retraining mode of the paper's error predictor.
func TestWarmStartRetraining(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	mkSet := func(slope float64) ([][]float64, []float64) {
		X := make([][]float64, 300)
		Y := make([]float64, 300)
		for i := range X {
			x := rng.Float64()*2 - 1
			X[i] = []float64{x}
			Y[i] = slope * x
		}
		return X, Y
	}
	net := NewMLP(1, []int{16}, 1, 31)
	X1, Y1 := mkSet(2)
	tr := &Trainer{Net: net, Loss: MSE{}, Opt: NewAdam(0.01), BatchSize: 16, Epochs: 60, Seed: 7}
	if _, err := tr.Fit(X1, Y1); err != nil {
		t.Fatal(err)
	}
	// Distribution shift: slope flips. A short warm-start run must adapt.
	X2, Y2 := mkSet(-2)
	arena := net.NewArena()
	before := 0.0
	for i := range X2 {
		d := net.Infer(X2[i], arena)[0] - Y2[i]
		before += d * d
	}
	tr2 := &Trainer{Net: net, Loss: MSE{}, Opt: NewAdam(0.01), BatchSize: 16, Epochs: 40, Seed: 8}
	if _, err := tr2.Fit(X2, Y2); err != nil {
		t.Fatal(err)
	}
	after := 0.0
	for i := range X2 {
		d := net.Infer(X2[i], arena)[0] - Y2[i]
		after += d * d
	}
	if after >= before/4 {
		t.Errorf("warm start did not adapt: MSE %v -> %v", before/300, after/300)
	}
}
