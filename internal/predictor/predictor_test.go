package predictor

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"gemini/internal/corpus"
	"gemini/internal/cpu"
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
		rescaleMean(cost, eng, gen.Batch(200), 5.0)
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

// rescaleMean multiplies cost.Scale so that the sample's mean service time
// at FDefault is targetMs, summing the times in sample order. The fixture's
// labels, and with them TestTrainedWeightsGolden's weights, are priced at
// the Scale this gives.
func rescaleMean(cost *search.CostModel, eng *search.Engine, sample []corpus.Query, targetMs float64) {
	total := 0.0
	for _, q := range sample {
		total += cpu.TimeFor(cost.WorkFor(eng.Search(q).Stats), cpu.FDefault)
	}
	cost.Scale *= targetMs / (total / float64(len(sample)))
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
		if p-math.Floor(p) != 0.5 {
			t.Fatalf("PredictMs %v is not a bucket center", p)
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
	p := NewPercentile(ds.Train)
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
	p := NewPercentile(nil)
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
	acc := EvaluateError(ep, clf, ds.Test, 1.0)
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
	sweep := func(procs int) []SweepPoint {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return FeatureSweep(ds, cfg, order)
	}
	pts := sweep(1)
	if len(pts) != 5 {
		t.Fatalf("sweep points = %d", len(pts))
	}
	// The trainings are independent: fanned out, every point is the same.
	if fanned := sweep(3); !reflect.DeepEqual(fanned, pts) {
		t.Errorf("GOMAXPROCS=3: %+v, GOMAXPROCS=1: %+v", fanned, pts)
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
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
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

// snapshotWith gob-encodes a classifier snapshot around a fresh network of
// in inputs and out outputs, with a scaler of unit stds over every Table II
// feature unless edit changes it: the raw material for the loader checks
// below.
func snapshotWith(t *testing.T, in, out int, edit func(*classifierSnapshot)) *bytes.Buffer {
	t.Helper()
	var nb bytes.Buffer
	if err := nn.NewMLP(in, []int{4}, out, 1).Save(&nb); err != nil {
		t.Fatal(err)
	}
	const nf = search.NumFeatures
	snap := classifierSnapshot{MaxMs: out - 1, Mean: make([]float64, nf), Std: make([]float64, nf), Net: nb.Bytes()}
	for j := range snap.Std {
		snap.Std[j] = 1
	}
	if edit != nil {
		edit(&snap)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// TestLoadersRejectMismatchedParts: a saved model whose network, scaler and
// columns do not fit each other fails to load, rather than predicting from
// zero-padded features or panicking on the first query.
func TestLoadersRejectMismatchedParts(t *testing.T) {
	const nf = search.NumFeatures
	errOut, clsOut := 2*errRangeMs+1, 61
	std := func(v float64) func(*classifierSnapshot) {
		return func(s *classifierSnapshot) { s.Std[2] = v }
	}
	cols := func(c ...int) func(*classifierSnapshot) {
		return func(s *classifierSnapshot) { s.Cols = c }
	}
	for _, c := range []struct {
		name string
		in   int
		edit func(*classifierSnapshot)
	}{
		{"14 means, 3 stds", nf, func(s *classifierSnapshot) { s.Std = s.Std[:3] }},
		{"13 means and stds", nf, func(s *classifierSnapshot) { s.Mean, s.Std = s.Mean[:nf-1], s.Std[:nf-1] }},
		{"zero std", nf, std(0)},
		{"negative std", nf, std(-1)},
		{"NaN std", nf, std(math.NaN())},
		{"infinite std", nf, std(math.Inf(1))},
		{"NaN mean", nf, func(s *classifierSnapshot) { s.Mean[0] = math.NaN() }},
	} {
		if _, err := LoadClassifier(snapshotWith(t, c.in, clsOut, c.edit)); err == nil {
			t.Errorf("LoadClassifier accepted %s", c.name)
		}
		if _, err := LoadError(snapshotWith(t, c.in, errOut, c.edit)); err == nil {
			t.Errorf("LoadError accepted %s", c.name)
		}
	}
	if _, err := LoadError(snapshotWith(t, 20, errOut, nil)); err == nil {
		t.Error("LoadError accepted a 20-input network")
	}
	for _, c := range []struct {
		name string
		edit func(*classifierSnapshot)
	}{
		{"column -1", cols(0, -1, 2)},
		{"column 14", cols(0, nf, 2)},
		{"a repeated column", cols(0, 5, 5)},
		{"a scaler over the columns only", func(s *classifierSnapshot) {
			s.Cols, s.Mean, s.Std = []int{0, 5, 13}, s.Mean[:3], s.Std[:3]
		}},
	} {
		if _, err := LoadClassifier(snapshotWith(t, 3, clsOut, c.edit)); err == nil {
			t.Errorf("LoadClassifier accepted %s", c.name)
		}
	}

	// The same snapshots, fitted together, load and predict.
	clf, err := LoadClassifier(snapshotWith(t, 3, clsOut, cols(0, 5, 13)))
	if err != nil {
		t.Fatal(err)
	}
	ep, err := LoadError(snapshotWith(t, nf, errOut, nil))
	if err != nil {
		t.Fatal(err)
	}
	var fv search.FeatureVector
	clf.PredictMs(fv)
	ep.PredictErrMs(fv)
}

// TestTrainedWeightsGolden pins the bits of a TestConfig-trained classifier.
// They depend on the dataset builder's searches (ExecStats price the labels)
// and on the order of every floating-point sum in the forward and backward
// passes, so a host-loop rewrite that moves a counter or reorders a sum fails
// here in a second, not at the results_full.txt smoke. amd64, like that file.
// Both goldens run once on the Go loops and once on the AVX2 kernels
// (onEachKernel): the two paths must train the same bits.
func TestTrainedWeightsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the golden is amd64 output")
	}
	ds, _ := dataset(t)
	onEachKernel(t, func(t *testing.T) {
		const want = "ce9002cd318dc38c"
		if got := weightsHash(TrainClassifier(ds.Train, nil, TestConfig()).Network()); got != want {
			t.Errorf("trained weights hash %s, want %s", got, want)
		}
	})
}

// onEachKernel runs f as the subtests "go" and "avx2", with nn's Go loops
// and then its AVX2 kernels selected; the second skips, saying why, where
// CPUID reports no AVX2.
func onEachKernel(t *testing.T, f func(t *testing.T)) {
	for _, k := range []struct {
		name string
		simd bool
	}{{"go", false}, {"avx2", true}} {
		t.Run(k.name, func(t *testing.T) {
			if k.simd && !nn.HasSIMD() {
				t.Skip("CPUID reports no AVX2: the Go loops are the only path on this machine")
			}
			defer nn.SetSIMD(nn.SetSIMD(k.simd))
			f(t)
		})
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
	onEachKernel(t, func(t *testing.T) {
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
	})
}

// raceEnabled is set under the race detector, whose sync.Pool drops a
// random share of the items put back.
var raceEnabled bool

// TestPredictAllocFree pins every NN prediction at zero allocations once its
// scratch pool holds an entry: the scaler's gathered log columns, a subset's
// picked columns, the arena's row lists and the argmax all stay in place.
// The collector is off while it counts, since a cycle empties a sync.Pool.
func TestPredictAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops scratch at random")
	}
	ds, _ := dataset(t)
	cfg := TestConfig()
	cfg.Hidden = []int{48, 48}
	clf := TrainClassifier(ds.Train, nil, cfg)
	ep := TrainError(ds.Train, clf, cfg)
	sub := TrainClassifier(ds.Train, DefaultSweepOrder()[:5], cfg)
	reg := TrainRegressor(ds.Train, cfg)
	lin := TrainLinear(ds.Train, cfg)
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fv := ds.Test[0].Features
	for name, f := range map[string]func(){
		"PredictMs":           func() { clf.PredictMs(fv) },
		"PredictErrMs":        func() { ep.PredictErrMs(fv) },
		"subset PredictMs":    func() { sub.PredictMs(fv) },
		"regressor PredictMs": func() { reg.PredictMs(fv) },
		"linear PredictMs":    func() { lin.PredictMs(fv) },
	} {
		f()
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, n)
		}
	}
}

// TestOneScalerRule holds the input rule every NN predictor shares: scale all
// Table II features, then pick. For every Fig. 6 prefix, a scaler fitted to
// the prefix's raw columns (what a subset classifier once fitted) must give
// the full scaler's statistics and scaled rows, bit for bit, and a subset
// classifier must carry the full scaler. The classifier, regressor, linear
// and error models fitted to one training set must carry equal scalers.
func TestOneScalerRule(t *testing.T) {
	ds, _ := dataset(t)
	picked := func(x []float64, cols []int) []float64 { return pick(x, cols, make([]float64, len(cols))) }
	raw := func(samples []Sample, cols []int) [][]float64 {
		X := make([][]float64, len(samples))
		for i := range samples {
			X[i] = picked(samples[i].Features[:], cols)
		}
		return X
	}
	sameBits := func(t *testing.T, what string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d columns, want %d", what, len(a), len(b))
		}
		for j := range a {
			if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
				t.Fatalf("%s: column %d is %v, want %v", what, j, a[j], b[j])
			}
		}
	}
	onEachKernel(t, func(t *testing.T) {
		full := nn.FitScaler(raw(ds.Train, nil), logCols[:])
		order := DefaultSweepOrder()
		for i := range order {
			cols := order[:i+1]
			var lc []bool
			for _, c := range cols {
				lc = append(lc, logCols[c])
			}
			sub := nn.FitScaler(raw(ds.Train, cols), lc)
			sameBits(t, fmt.Sprintf("prefix %d mean", i+1), sub.Mean, picked(full.Mean, cols))
			sameBits(t, fmt.Sprintf("prefix %d std", i+1), sub.Std, picked(full.Std, cols))
			for r, x := range append(raw(ds.Train, nil), raw(ds.Test, nil)...) {
				sameBits(t, fmt.Sprintf("prefix %d row %d", i+1, r), sub.Transform(picked(x, cols)), picked(full.Transform(x), cols))
			}
		}

		cfg := TestConfig()
		cfg.Epochs = 1
		clf := TrainClassifier(ds.Train, nil, cfg)
		for name, m := range map[string]*model{
			"classifier":        clf.model,
			"subset classifier": TrainClassifier(ds.Train, order[:3], cfg).model,
			"regressor":         TrainRegressor(ds.Train, cfg).model,
			"linear":            TrainLinear(ds.Train, cfg).model,
			"error":             TrainError(ds.Train, clf, cfg).model,
		} {
			if !reflect.DeepEqual(m.scaler.LogCols, full.LogCols) {
				t.Errorf("%s log columns %v, want %v", name, m.scaler.LogCols, full.LogCols)
			}
			sameBits(t, name+" mean", m.scaler.Mean, full.Mean)
			sameBits(t, name+" std", m.scaler.Std, full.Std)
		}
	})
}

// TestSnapshotGolden pins the bytes Save writes for the TestConfig
// classifier and its error model (`geminisim train -save`'s two files at
// test scale): FNV-64a over each snapshot, on both kernel paths. amd64, like
// TestTrainedWeightsGolden.
func TestSnapshotGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the golden is amd64 output")
	}
	ds, _ := dataset(t)
	onEachKernel(t, func(t *testing.T) {
		clf := TrainClassifier(ds.Train, nil, TestConfig())
		ep := TrainError(ds.Train, clf, TestConfig())
		for _, c := range []struct {
			name string
			save func(io.Writer) error
			want string
		}{
			{"classifier", clf.Save, "262be6dfbf740cdc"},
			{"error", ep.Save, "d579b38bb534555b"},
		} {
			h := fnv.New64a()
			if err := c.save(h); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%016x", h.Sum64()); got != c.want {
				t.Errorf("%s snapshot hash %s, want %s", c.name, got, c.want)
			}
		}
	})
}
