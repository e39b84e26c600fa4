package search

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"gemini/internal/corpus"
	"gemini/internal/cpu"
	"gemini/internal/index"
)

var (
	testCorpus *corpus.Corpus
	testIndex  *index.Index
)

func setup(t testing.TB) (*corpus.Corpus, *Engine) {
	t.Helper()
	if testCorpus == nil {
		testCorpus = corpus.Generate(corpus.SmallSpec())
		testIndex = index.Build(testCorpus)
	}
	return testCorpus, NewEngine(testIndex, DefaultK)
}

// bruteForce scores every document exhaustively — the reference oracle for
// the MaxScore implementation.
func bruteForce(ix *index.Index, q corpus.Query, k int) []Result {
	scores := map[int32]float32{}
	for _, pl := range ix.AppendLists(nil, q) {
		for _, p := range pl.Postings {
			scores[p.Doc] += p.Impact
		}
	}
	all := make([]Result, 0, len(scores))
	for d, s := range scores {
		all = append(all, Result{Doc: d, Score: s})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Doc < all[j].Doc
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func TestSearchMatchesBruteForce(t *testing.T) {
	c, e := setup(t)
	g := corpus.NewQueryGen(c, 99)
	for i := 0; i < 300; i++ {
		q := g.Next()
		got := e.Search(q).Results
		want := bruteForce(e.Index(), q, e.K())
		if len(got) != len(want) {
			t.Fatalf("query %q: got %d results, want %d", q.Text, len(got), len(want))
		}
		for j := range got {
			// Scores must match; ties may order docs differently, so compare
			// score multisets positionally (both sorted desc).
			if math.Abs(float64(got[j].Score-want[j].Score)) > 1e-4 {
				t.Fatalf("query %q: result %d score %v, want %v", q.Text, j, got[j].Score, want[j].Score)
			}
		}
	}
}

func TestSearchSingleTermExact(t *testing.T) {
	c, e := setup(t)
	q, ok := corpus.ParseQuery(c, "toyota")
	if !ok {
		t.Fatal("toyota missing")
	}
	ex := e.Search(q)
	want := bruteForce(e.Index(), q, e.K())
	if len(ex.Results) != len(want) {
		t.Fatalf("got %d, want %d", len(ex.Results), len(want))
	}
	for i := range want {
		if ex.Results[i].Score != want[i].Score {
			t.Errorf("result %d: %v vs %v", i, ex.Results[i], want[i])
		}
	}
	pl, _ := e.Index().List(q.Terms[0])
	if ex.Stats.PostingsVisited != pl.Len() {
		t.Errorf("single-term scan visited %d postings, list has %d", ex.Stats.PostingsVisited, pl.Len())
	}
	if ex.Stats.Terms != 1 {
		t.Errorf("Terms = %d", ex.Stats.Terms)
	}
}

func TestSearchUnknownQuery(t *testing.T) {
	_, e := setup(t)
	ex := e.Search(corpus.Query{Terms: []corpus.TermID{corpus.TermID(1 << 20)}})
	if len(ex.Results) != 0 || ex.Stats.DocsScored != 0 {
		t.Errorf("unknown query produced work: %+v", ex)
	}
}

func TestPruningSavesWork(t *testing.T) {
	c, e := setup(t)
	g := corpus.NewQueryGen(c, 5)
	savedSomewhere := false
	for i := 0; i < 200; i++ {
		q := g.Next()
		if q.Len() < 2 {
			continue
		}
		ex := e.Search(q)
		total := 0
		for _, pl := range e.Index().AppendLists(nil, q) {
			total += pl.Len()
		}
		if ex.Stats.PostingsVisited > total {
			t.Fatalf("visited %d > total postings %d", ex.Stats.PostingsVisited, total)
		}
		if ex.Stats.PostingsVisited < total {
			savedSomewhere = true
		}
	}
	if !savedSomewhere {
		t.Error("MaxScore never pruned any postings across 200 multi-term queries")
	}
}

func TestExecStatsConsistency(t *testing.T) {
	c, e := setup(t)
	g := corpus.NewQueryGen(c, 13)
	for i := 0; i < 200; i++ {
		q := g.Next()
		ex := e.Search(q)
		st := ex.Stats
		if st.DocsEverInTopK > st.DocsScored {
			t.Fatalf("everInTopK %d > scored %d", st.DocsEverInTopK, st.DocsScored)
		}
		if st.HeapOps != st.DocsEverInTopK {
			t.Fatalf("heap ops %d != admitted docs %d", st.HeapOps, st.DocsEverInTopK)
		}
		if len(ex.Results) > e.K() {
			t.Fatalf("more than K results: %d", len(ex.Results))
		}
		for j := 1; j < len(ex.Results); j++ {
			if ex.Results[j].Score > ex.Results[j-1].Score {
				t.Fatalf("results not sorted desc")
			}
		}
	}
}

func TestTopKHeap(t *testing.T) {
	h := newTopKHeap(3)
	for _, s := range []float32{5, 1, 9, 3, 7} {
		h.offer(Result{Doc: int32(s), Score: s})
	}
	res := h.results()
	want := []float32{9, 7, 5}
	if len(res) != 3 {
		t.Fatalf("len = %d", len(res))
	}
	for i, w := range want {
		if res[i].Score != w {
			t.Errorf("res[%d] = %v, want %v", i, res[i].Score, w)
		}
	}
	if h.threshold() != 5 {
		t.Errorf("threshold = %v, want 5", h.threshold())
	}
	if !h.full() {
		t.Error("heap should be full")
	}
	if h.offer(Result{Doc: 0, Score: 4}) {
		t.Error("score below threshold admitted")
	}
}

func TestTopKHeapZeroK(t *testing.T) {
	h := newTopKHeap(0) // clamps to 1
	h.offer(Result{Doc: 1, Score: 2})
	h.offer(Result{Doc: 2, Score: 3})
	res := h.results()
	if len(res) != 1 || res[0].Score != 3 {
		t.Errorf("results = %v", res)
	}
}

// Property: the heap keeps exactly the k largest of any stream.
func TestTopKHeapProperty(t *testing.T) {
	f := func(scores []float32, kRaw uint8) bool {
		k := int(kRaw%10) + 1
		h := newTopKHeap(k)
		clean := make([]float32, 0, len(scores))
		for i, s := range scores {
			if math.IsNaN(float64(s)) || math.IsInf(float64(s), 0) {
				continue
			}
			clean = append(clean, s)
			h.offer(Result{Doc: int32(i), Score: s})
		}
		sort.Slice(clean, func(i, j int) bool { return clean[i] > clean[j] })
		if len(clean) > k {
			clean = clean[:k]
		}
		res := h.results()
		if len(res) != len(clean) {
			return false
		}
		for i := range res {
			if res[i].Score != clean[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCostModelMonotone(t *testing.T) {
	m := DefaultCostModel()
	small := m.WorkFor(ExecStats{PostingsVisited: 10, DocsScored: 10})
	big := m.WorkFor(ExecStats{PostingsVisited: 10000, DocsScored: 8000})
	if big <= small {
		t.Errorf("more work counters must mean more cycles: %v <= %v", big, small)
	}
	if m.WorkFor(ExecStats{}) <= 0 {
		t.Errorf("fixed cost must be positive")
	}
}

func TestCalibrate(t *testing.T) {
	c, e := setup(t)
	m := DefaultCostModel()
	sample := corpus.NewQueryGen(c, 3).Batch(300)
	m.Calibrate(e, sample, 5.0)
	total := 0.0
	for _, q := range sample {
		total += cpu.TimeFor(m.WorkFor(e.Search(q).Stats), cpu.FDefault)
	}
	mean := total / float64(len(sample))
	if math.Abs(mean-5.0) > 0.01 {
		t.Errorf("calibrated mean = %v ms, want 5.0", mean)
	}
}

func TestCalibrateDegenerate(t *testing.T) {
	m := DefaultCostModel()
	before := m.Scale
	m.Calibrate(nil, nil, 5)
	if m.Scale != before {
		t.Errorf("empty calibration changed scale")
	}
}

// TestCalibrateRejectsBadTargets: a target that is not a positive finite
// number returns 0 and leaves Scale as it was, instead of turning it (and
// every WorkFor after it) into NaN or +Inf.
func TestCalibrateRejectsBadTargets(t *testing.T) {
	c, e := setup(t)
	sample := corpus.NewQueryGen(c, 3).Batch(20)
	for _, tc := range []struct {
		name   string
		target float64
	}{
		{"zero", 0},
		{"negative zero", math.Copysign(0, -1)},
		{"negative", -5},
		{"NaN", math.NaN()},
		{"+Inf", math.Inf(1)},
		{"-Inf", math.Inf(-1)},
	} {
		m := DefaultCostModel()
		m.Scale = 1.5
		if got := m.Calibrate(e, sample, tc.target); got != 0 || m.Scale != 1.5 {
			t.Errorf("%s: Calibrate = %v, Scale = %v; want 0 and Scale 1.5 kept", tc.name, got, m.Scale)
		}
	}
	m := DefaultCostModel()
	if got := m.Calibrate(e, sample, 5); !(got > 0) || m.Scale == 1 {
		t.Errorf("finite target: Calibrate = %v, Scale = %v; want a mean and a new Scale", got, m.Scale)
	}
}

// The paper's Fig. 1c: service times across queries must vary by an order
// of magnitude (Canada was 14x Tokyo).
func TestServiceTimeSpread(t *testing.T) {
	c, e := setup(t)
	m := DefaultCostModel()
	g := corpus.NewQueryGen(c, 17)
	min, max := math.Inf(1), 0.0
	for i := 0; i < 500; i++ {
		st := cpu.TimeFor(m.WorkFor(e.Search(g.Next()).Stats), cpu.FDefault)
		if st < min {
			min = st
		}
		if st > max {
			max = st
		}
	}
	if max/min < 6 {
		t.Errorf("service time spread %.1fx too small (want >= 6x)", max/min)
	}
}

func TestFeaturesBasics(t *testing.T) {
	c, e := setup(t)
	x := NewExtractor(e)
	q, _ := corpus.ParseQuery(c, "toyota")
	fv := x.Features(q)
	pl, _ := e.Index().List(q.Terms[0])
	if fv[FeatPostingListLength] != float64(pl.Len()) {
		t.Errorf("posting list length feature = %v, want %v", fv[FeatPostingListLength], pl.Len())
	}
	if fv[FeatQueryLength] != 1 {
		t.Errorf("query length = %v", fv[FeatQueryLength])
	}
	if fv[FeatMaxScore] <= 0 || fv[FeatIDF] <= 0 {
		t.Errorf("degenerate features: %+v", fv)
	}
	if fv[FeatHMean] > fv[FeatGMean]+1e-9 || fv[FeatGMean] > fv[FeatAMean]+1e-9 {
		t.Errorf("mean inequality violated: H=%v G=%v A=%v", fv[FeatHMean], fv[FeatGMean], fv[FeatAMean])
	}
	if fv[FeatEstimatedMaxScore] < fv[FeatMaxScore] {
		t.Errorf("estimated max %v below actual max %v", fv[FeatEstimatedMaxScore], fv[FeatMaxScore])
	}
	if fv[FeatDocsIn5PctOfMaxScore] < fv[FeatNumMaxScore] {
		t.Errorf("5%%-of-max count below max count")
	}
	if fv[FeatLocalMaximaAboveAMean] > fv[FeatNumLocalMaxima] {
		t.Errorf("local maxima above mean exceeds total")
	}
}

func TestFeaturesPhraseIsMaxOfTerms(t *testing.T) {
	c, e := setup(t)
	x := NewExtractor(e)
	q, ok := corpus.ParseQuery(c, "united kingdom")
	if !ok || q.Len() != 2 {
		t.Fatal("phrase parse failed")
	}
	fv := x.Features(q)
	fu := x.Features(corpus.Query{Terms: q.Terms[:1]})
	fk := x.Features(corpus.Query{Terms: q.Terms[1:]})
	for i := 0; i < NumFeatures-1; i++ {
		want := math.Max(fu[i], fk[i])
		if math.Abs(fv[i]-want) > 1e-9 {
			t.Errorf("feature %s = %v, want max(%v, %v)", FeatureNames[i], fv[i], fu[i], fk[i])
		}
	}
	if fv[FeatQueryLength] != 2 {
		t.Errorf("query length = %v", fv[FeatQueryLength])
	}
}

func TestFeaturesUnknownQueryZero(t *testing.T) {
	_, e := setup(t)
	x := NewExtractor(e)
	fv := x.Features(corpus.Query{Terms: []corpus.TermID{corpus.TermID(1 << 20)}})
	for i := 0; i < NumFeatures-1; i++ {
		if fv[i] != 0 {
			t.Errorf("feature %s = %v for unknown query", FeatureNames[i], fv[i])
		}
	}
}

func TestFeatureCacheConsistency(t *testing.T) {
	c, e := setup(t)
	x := NewExtractor(e)
	q, _ := corpus.ParseQuery(c, "canada")
	a := x.Features(q)
	b := x.Features(q)
	if a != b {
		t.Errorf("cached features differ: %v vs %v", a, b)
	}
}

func TestJitterBiasBounded(t *testing.T) {
	c, e := setup(t)
	x := NewExtractor(e)
	j := DefaultJitter()
	g := corpus.NewQueryGen(c, 23)
	for i := 0; i < 200; i++ {
		b := j.Bias(x.Features(g.Next()))
		if b < -j.BiasAmp-1e-12 || b > j.BiasAmp+j.SpikeAmp+1e-12 {
			t.Fatalf("bias %v outside [-%v, %v]", b, j.BiasAmp, j.BiasAmp+j.SpikeAmp)
		}
	}
}

func TestMeasuredWorkStatistics(t *testing.T) {
	c, e := setup(t)
	x := NewExtractor(e)
	j := DefaultJitter()
	rng := rand.New(rand.NewSource(1))
	q, _ := corpus.ParseQuery(c, "united")
	fv := x.Features(q)
	base := cpu.Work(10)
	var sum, sumsq float64
	const n = 4000
	for i := 0; i < n; i++ {
		m := float64(j.MeasuredWork(base, fv, rng))
		if m <= 0 {
			t.Fatalf("non-positive measured work")
		}
		sum += m
		sumsq += m * m
	}
	mean := sum / n
	std := math.Sqrt(sumsq/n - mean*mean)
	wantMean := float64(base) * (1 + j.Bias(fv))
	if math.Abs(mean-wantMean) > 0.02*float64(base) {
		t.Errorf("measured mean %v, want ≈%v", mean, wantMean)
	}
	if std < 0.01*float64(base) || std > 0.08*float64(base) {
		t.Errorf("measured std %v outside expected band", std)
	}
}

// Property: measured work is always positive and within the clamp bounds.
func TestMeasuredWorkProperty(t *testing.T) {
	j := DefaultJitter()
	rng := rand.New(rand.NewSource(9))
	f := func(baseRaw uint16, lenRaw uint16) bool {
		base := cpu.Work(float64(baseRaw)/100 + 0.01)
		var fv FeatureVector
		fv[FeatPostingListLength] = float64(lenRaw)
		m := j.MeasuredWork(base, fv, rng)
		hi := float64(base) * (1 + j.BiasAmp + j.SpikeAmp + 3*j.NoiseSigma + 1e-9)
		lo := float64(base) * 0.1 * (1 - 1e-9)
		return float64(m) >= lo && float64(m) <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
