package predictor

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"gemini/internal/corpus"
	"gemini/internal/index"
	"gemini/internal/nn"
	"gemini/internal/search"
)

func indexFor(c *corpus.Corpus) *index.Index { return index.Build(c) }

// shared fixture: building the dataset executes thousands of queries, so do
// it once for the whole package.
var (
	fixtureDS      *Dataset
	fixtureBuilder *Builder
)

func dataset(t testing.TB) (*Dataset, *Builder) {
	t.Helper()
	if fixtureDS == nil {
		c := corpus.Generate(corpus.SmallSpec())
		eng := search.NewEngine(indexFor(c), search.DefaultK)
		cost := search.DefaultCostModel()
		gen := corpus.NewQueryGen(c, 11)
		sample := gen.Batch(200)
		cost.Calibrate(eng, sample, 5.0)
		fixtureBuilder = &Builder{
			Engine:    eng,
			Extractor: search.NewExtractor(eng),
			Cost:      cost,
			Jitter:    search.DefaultJitter(),
		}
		fixtureDS = fixtureBuilder.Build(gen.Batch(2500), 0.2, 42)
	}
	return fixtureDS, fixtureBuilder
}

func TestBuildDataset(t *testing.T) {
	ds, _ := dataset(t)
	if len(ds.Train) == 0 || len(ds.Test) == 0 {
		t.Fatalf("empty split: %d/%d", len(ds.Train), len(ds.Test))
	}
	total := len(ds.Train) + len(ds.Test)
	if total != 2500 {
		t.Fatalf("total = %d", total)
	}
	frac := float64(len(ds.Test)) / float64(total)
	if math.Abs(frac-0.2) > 0.01 {
		t.Errorf("test fraction = %v", frac)
	}
	for _, s := range ds.Train[:50] {
		if s.MeasuredMs <= 0 {
			t.Fatalf("non-positive measured time %v", s.MeasuredMs)
		}
		if s.BaseWork <= 0 {
			t.Fatalf("non-positive base work")
		}
	}
}

func TestSampleJitterVaries(t *testing.T) {
	_, b := dataset(t)
	rng := rand.New(rand.NewSource(3))
	q := corpus.Query{Terms: []corpus.TermID{0}}
	a := b.Sample(q, rng)
	c := b.Sample(q, rng)
	if a.MeasuredMs == c.MeasuredMs {
		t.Errorf("two executions measured identically: %v", a.MeasuredMs)
	}
	if a.BaseWork != c.BaseWork {
		t.Errorf("base work should be deterministic: %v vs %v", a.BaseWork, c.BaseWork)
	}
}

func TestNNClassifierLearns(t *testing.T) {
	ds, _ := dataset(t)
	clf := TrainClassifier(ds.Train, nil, TestConfig())
	ev := Evaluate(clf, ds.Test, 1.0)
	if ev.ErrorRate > 0.5 {
		t.Errorf("classifier ±1ms error rate = %.2f, want < 0.5", ev.ErrorRate)
	}
	if ev.MAEMs > 3 {
		t.Errorf("classifier MAE = %.2f ms", ev.MAEMs)
	}
	if ev.OverheadUs <= overheadBaseUs {
		t.Errorf("overhead = %v", ev.OverheadUs)
	}
	if clf.Name() == "" || clf.Network() == nil {
		t.Error("metadata missing")
	}
}

func TestClassifierPredictionsInRange(t *testing.T) {
	ds, _ := dataset(t)
	clf := TrainClassifier(ds.Train, nil, TestConfig())
	for _, s := range ds.Test {
		p := clf.PredictMs(s.Features)
		if p < 0 || p > float64(TestConfig().MaxMs)+1 {
			t.Fatalf("prediction %v out of range", p)
		}
		cls := clf.PredictClass(s.Features)
		if math.Abs(p-(float64(cls)+0.5)) > 1e-9 {
			t.Fatalf("PredictMs %v inconsistent with class %d", p, cls)
		}
	}
}

func TestNNRegressor(t *testing.T) {
	ds, _ := dataset(t)
	reg := TrainRegressor(ds.Train, TestConfig())
	ev := Evaluate(reg, ds.Test, 4.0) // paper uses a 4 ms threshold for the regressor
	if ev.ErrorRate > 0.6 {
		t.Errorf("regressor ±4ms error rate = %.2f", ev.ErrorRate)
	}
	for _, s := range ds.Test[:20] {
		if reg.PredictMs(s.Features) < 0 {
			t.Fatalf("negative prediction")
		}
	}
	if reg.Name() == "" {
		t.Error("missing name")
	}
}

func TestLinearClassifier(t *testing.T) {
	ds, _ := dataset(t)
	lin := TrainLinear(ds.Train, TestConfig())
	ev := Evaluate(lin, ds.Test, 1.0)
	if ev.ErrorRate < 0 || ev.ErrorRate > 1 {
		t.Fatalf("error rate = %v", ev.ErrorRate)
	}
	if lin.OverheadUs() >= TrainClassifier(ds.Train, nil, TestConfig()).OverheadUs() {
		t.Errorf("linear model should have lower modeled overhead than the MLP")
	}
}

// Fig. 7 shape: the NN classifier must beat the linear model on the ±1 ms
// metric, and overheads must order linear < regressor ≈ classifier.
func TestModelComparisonShape(t *testing.T) {
	ds, _ := dataset(t)
	cfg := TestConfig()
	clf := TrainClassifier(ds.Train, nil, cfg)
	lin := TrainLinear(ds.Train, cfg)
	evC := Evaluate(clf, ds.Test, 1.0)
	evL := Evaluate(lin, ds.Test, 1.0)
	if evC.ErrorRate >= evL.ErrorRate {
		t.Errorf("NN classifier (%.2f) not better than linear (%.2f)", evC.ErrorRate, evL.ErrorRate)
	}
	if lin.OverheadUs() >= clf.OverheadUs() {
		t.Errorf("overhead ordering violated: linear %v >= classifier %v", lin.OverheadUs(), clf.OverheadUs())
	}
}

func TestPercentilePredictor(t *testing.T) {
	ds, _ := dataset(t)
	p := NewPercentile(ds.Train, 95)
	if p.ValueMs <= 0 {
		t.Fatalf("p95 = %v", p.ValueMs)
	}
	// Must be conservative: at least ~95% of training times below it.
	below := 0
	for _, s := range ds.Train {
		if s.MeasuredMs <= p.ValueMs {
			below++
		}
	}
	frac := float64(below) / float64(len(ds.Train))
	if frac < 0.93 {
		t.Errorf("only %.2f of train below p95", frac)
	}
	var fv search.FeatureVector
	if p.PredictMs(fv) != p.ValueMs {
		t.Error("percentile prediction not constant")
	}
	if p.OverheadUs() > 5 {
		t.Error("percentile lookup should be nearly free")
	}
}

func TestPercentileEmpty(t *testing.T) {
	p := NewPercentile(nil, 95)
	if p.ValueMs != 0 {
		t.Errorf("empty percentile = %v", p.ValueMs)
	}
}

func TestErrClassRoundTrip(t *testing.T) {
	cases := []struct {
		e    float64
		want int
	}{
		{0, errRangeMs}, {1, errRangeMs + 1}, {-1, errRangeMs - 1},
		{0.4, errRangeMs}, {-0.4, errRangeMs},
		{100, 2 * errRangeMs}, {-100, 0},
	}
	for _, c := range cases {
		if got := errClass(c.e); got != c.want {
			t.Errorf("errClass(%v) = %d, want %d", c.e, got, c.want)
		}
	}
	if classToErr(errRangeMs) != 0 {
		t.Errorf("classToErr center = %v", classToErr(errRangeMs))
	}
}

func TestNNErrorPredictor(t *testing.T) {
	ds, _ := dataset(t)
	cfg := TestConfig()
	clf := TrainClassifier(ds.Train, nil, cfg)
	ep := TrainError(ds.Train, clf, cfg)
	acc := ep.Accuracy(ds.Test, clf, 1.0)
	if acc < 0.4 {
		t.Errorf("error predictor ±1ms accuracy = %.2f, want >= 0.4", acc)
	}
	if ep.Name() == "" || ep.OverheadUs() <= 0 {
		t.Error("metadata missing")
	}
	// Error predictions stay within the bucket range.
	for _, s := range ds.Test[:50] {
		e := ep.PredictErrMs(s.Features)
		if e < -errRangeMs || e > errRangeMs {
			t.Fatalf("error prediction %v out of range", e)
		}
	}
}

// The error predictor must beat the moving average at tracking residuals —
// the mechanism behind Gemini outperforming Gemini-α (paper §VI-D).
func TestErrorPredictorBeatsMovingAverage(t *testing.T) {
	ds, _ := dataset(t)
	cfg := TestConfig()
	clf := TrainClassifier(ds.Train, nil, cfg)
	ep := TrainError(ds.Train, clf, cfg)

	ma := NewMovingAvgError(60)
	maHits, nnHits := 0, 0
	for _, s := range ds.Test {
		trueErr := s.MeasuredMs - clf.PredictMs(s.Features)
		if math.Abs(ma.PredictErrMs(s.Features)-trueErr) <= 1 {
			maHits++
		}
		if math.Abs(ep.PredictErrMs(s.Features)-trueErr) <= 1 {
			nnHits++
		}
		ma.Observe(trueErr)
	}
	if nnHits <= maHits {
		t.Errorf("NN error predictor (%d hits) not better than moving average (%d hits)", nnHits, maHits)
	}
}

func TestMovingAvgErrorObserve(t *testing.T) {
	ma := NewMovingAvgError(3)
	var fv search.FeatureVector
	if ma.PredictErrMs(fv) != 0 {
		t.Error("empty moving average should predict 0")
	}
	ma.Observe(3)
	ma.Observe(-6) // magnitudes: |−6| = 6
	// mean 4.5 + 1·std 1.5 = 6 (conservative population slack).
	if got := ma.PredictErrMs(fv); math.Abs(got-6) > 1e-12 {
		t.Errorf("moving avg estimate = %v, want 6", got)
	}
}

func TestZeroError(t *testing.T) {
	var z ZeroError
	var fv search.FeatureVector
	if z.PredictErrMs(fv) != 0 || z.Name() == "" {
		t.Error("ZeroError misbehaves")
	}
}

func TestEvaluateEmpty(t *testing.T) {
	p := &Percentile95{ValueMs: 5}
	ev := Evaluate(p, nil, 1)
	if ev.ErrorRate != 0 || ev.Model == "" {
		t.Errorf("empty eval: %+v", ev)
	}
	if EvaluateError(ZeroError{}, p, nil, 1) != 0 {
		t.Error("empty error eval")
	}
}

func TestFeatureSweepImproves(t *testing.T) {
	ds, _ := dataset(t)
	cfg := TestConfig()
	cfg.Epochs = 6
	// Use a short prefix of the order to keep the test fast.
	order := DefaultSweepOrder()[:5]
	pts := FeatureSweep(ds, cfg, order, 1)
	if len(pts) != 5 {
		t.Fatalf("sweep points = %d", len(pts))
	}
	// The trainings are independent: fanned out, every point is the same.
	if fanned := FeatureSweep(ds, cfg, order, 3); !reflect.DeepEqual(fanned, pts) {
		t.Errorf("3 workers: %+v, serial: %+v", fanned, pts)
	}
	for _, p := range pts {
		if p.Accuracy < 0 || p.Accuracy > 1 {
			t.Fatalf("accuracy %v out of range", p.Accuracy)
		}
		if p.Feature == "" {
			t.Fatal("missing feature name")
		}
	}
	if pts[len(pts)-1].Accuracy+0.10 < pts[0].Accuracy {
		t.Errorf("adding features badly degraded accuracy: %v -> %v", pts[0].Accuracy, pts[len(pts)-1].Accuracy)
	}
}

func TestDefaultSweepOrderExcludesQueryLength(t *testing.T) {
	order := DefaultSweepOrder()
	if len(order) != search.NumFeatures-1 {
		t.Fatalf("order len = %d", len(order))
	}
	for _, c := range order {
		if c == search.FeatQueryLength {
			t.Error("query length should not be in the Fig. 6 sweep")
		}
	}
}

func TestConfigPresets(t *testing.T) {
	p := PaperConfig()
	if len(p.Hidden) != 5 || p.Hidden[0] != 128 {
		t.Errorf("paper config = %+v", p)
	}
	d := DefaultConfig()
	if d.MaxMs != 60 || d.Epochs <= 0 {
		t.Errorf("default config = %+v", d)
	}
}

func TestClassifierSaveLoadRoundTrip(t *testing.T) {
	ds, _ := dataset(t)
	clf := TrainClassifier(ds.Train, nil, TestConfig())
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadClassifier(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ds.Test[:100] {
		if clf.PredictMs(s.Features) != loaded.PredictMs(s.Features) {
			t.Fatalf("prediction differs after round trip")
		}
	}
}

func TestClassifierSaveLoadFile(t *testing.T) {
	ds, _ := dataset(t)
	clf := TrainClassifier(ds.Train, nil, TestConfig())
	path := t.TempDir() + "/clf.gob"
	if err := clf.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadClassifierFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := ds.Test[0]
	if clf.PredictMs(s.Features) != loaded.PredictMs(s.Features) {
		t.Error("file round trip mismatch")
	}
	if _, err := LoadClassifierFile(path + ".missing"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestClassifierSubsetColsRoundTrip(t *testing.T) {
	ds, _ := dataset(t)
	cols := []int{search.FeatPostingListLength, search.FeatIDF, search.FeatMaxScore}
	clf := TrainClassifier(ds.Train, cols, TestConfig())
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadClassifier(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := ds.Test[1]
	if clf.PredictMs(s.Features) != loaded.PredictMs(s.Features) {
		t.Error("subset-column round trip mismatch")
	}
}

func TestLoadClassifierRejectsGarbage(t *testing.T) {
	if _, err := LoadClassifier(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("garbage accepted")
	}
}

func TestErrorPredictorSaveLoad(t *testing.T) {
	ds, _ := dataset(t)
	cfg := TestConfig()
	clf := TrainClassifier(ds.Train, nil, cfg)
	ep := TrainError(ds.Train, clf, cfg)
	var buf bytes.Buffer
	if err := ep.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadError(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ds.Test[:50] {
		if ep.PredictErrMs(s.Features) != loaded.PredictErrMs(s.Features) {
			t.Fatal("error prediction differs after round trip")
		}
	}
	if _, err := LoadError(bytes.NewReader(nil)); err == nil {
		t.Error("empty error model accepted")
	}
}

// TestTrainedWeightsGolden pins the bits of a TestConfig-trained classifier.
// They depend on the dataset builder's searches (ExecStats price the labels)
// and on the order of every floating-point sum in the forward and backward
// passes, so a host-loop rewrite that moves a counter or reorders a sum fails
// here in a second, not at the results_full.txt smoke. amd64, like that file.
func TestTrainedWeightsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the golden is amd64 output")
	}
	ds, _ := dataset(t)
	h := fnv.New64a()
	var b [8]byte
	for _, l := range TrainClassifier(ds.Train, nil, TestConfig()).Network().Layers {
		for _, vs := range [][]float64{l.W, l.B} {
			for _, v := range vs {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
	}
	const want = "ce9002cd318dc38c"
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Errorf("trained weights hash %s, want %s", got, want)
	}
}

// weightsHash is TestTrainedWeightsGolden's hash: FNV-64a over the bits of
// each layer's W, then its B.
func weightsHash(net *nn.Network) string {
	h := fnv.New64a()
	var b [8]byte
	for _, l := range net.Layers {
		for _, vs := range [][]float64{l.W, l.B} {
			for _, v := range vs {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestDeepTrainedWeightsGolden pins what TestTrainedWeightsGolden's single
// hidden layer cannot reach: a ReLU layer under a ReLU layer, where the upper
// one computes its input gradient only at the lower one's live units. Both
// networks have two hidden layers: the classifier, and the error network
// TrainError fits to its residuals. amd64, like the other golden.
func TestDeepTrainedWeightsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the golden is amd64 output")
	}
	ds, _ := dataset(t)
	cfg := TestConfig()
	cfg.Hidden = []int{16, 16}
	clf := TrainClassifier(ds.Train, nil, cfg)
	ep := TrainError(ds.Train, clf, cfg)
	for _, c := range []struct {
		name string
		net  *nn.Network
		want string
	}{
		{"classifier", clf.Network(), "8b91e57affa3ad5c"},
		{"error", ep.net, "4e898438fd373ece"},
	} {
		if got := weightsHash(c.net); got != c.want {
			t.Errorf("%s weights hash %s, want %s", c.name, got, c.want)
		}
	}
}
