package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPercentileBasics(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 10}, {50, 5.5}, {25, 3.25}, {75, 7.75},
	}
	for _, c := range cases {
		got, err := Percentile(vals, c.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", c.p, err)
		}
		if !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileSingleValue(t *testing.T) {
	got, err := Percentile([]float64{42}, 95)
	if err != nil || got != 42 {
		t.Fatalf("Percentile single = %v, %v; want 42, nil", got, err)
	}
}

func TestPercentileErrors(t *testing.T) {
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Errorf("empty: got %v, want ErrEmpty", err)
	}
	if _, err := Percentile([]float64{1}, -1); err == nil {
		t.Errorf("negative percentile accepted")
	}
	if _, err := Percentile([]float64{1}, 101); err == nil {
		t.Errorf("out-of-range percentile accepted")
	}
}

func TestPercentileRange(t *testing.T) {
	vals := []float64{1, 2, 3}
	for _, c := range []struct {
		p  float64
		ok bool
	}{
		{0, true}, {100, true}, {50, true},
		{-1, false}, {101, false}, {math.NaN(), false}, {math.Inf(-1), false}, {math.Inf(1), false},
	} {
		if _, err := Percentile(vals, c.p); (err == nil) != c.ok {
			t.Errorf("Percentile(p=%v) error = %v, want ok=%v", c.p, err, c.ok)
		}
		panicked := func() (r any) {
			defer func() { r = recover() }()
			PercentileSorted(vals, c.p)
			return nil
		}()
		want := any(errPercentileRange)
		if c.ok {
			want = nil
		}
		if panicked != want {
			t.Errorf("PercentileSorted(p=%v) panicked with %v, want %v", c.p, panicked, want)
		}
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	vals := []float64{3, 1, 2}
	if _, err := Percentile(vals, 50); err != nil {
		t.Fatal(err)
	}
	if vals[0] != 3 || vals[1] != 1 || vals[2] != 2 {
		t.Errorf("input mutated: %v", vals)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		p1 := float64(a) / 255 * 100
		p2 := float64(b) / 255 * 100
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, err1 := Percentile(vals, p1)
		v2, err2 := Percentile(vals, p2)
		if err1 != nil || err2 != nil {
			return false
		}
		lo, _ := Min(vals)
		hi, _ := Max(vals)
		return v1 <= v2+1e-9 && v1 >= lo-1e-9 && v2 <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMeans(t *testing.T) {
	vals := []float64{2, 8}
	am, _ := Mean(vals)
	gm, _ := GeometricMean(vals)
	hm, _ := HarmonicMean(vals)
	if !almostEqual(am, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", am)
	}
	if !almostEqual(gm, 4, 1e-9) {
		t.Errorf("GeometricMean = %v, want 4", gm)
	}
	if !almostEqual(hm, 3.2, 1e-9) {
		t.Errorf("HarmonicMean = %v, want 3.2", hm)
	}
}

// Property: HM <= GM <= AM for positive values.
func TestMeanInequalityProperty(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			v = math.Abs(v)
			if v > 1e-6 && v < 1e9 && !math.IsNaN(v) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		am, _ := Mean(vals)
		gm, _ := GeometricMean(vals)
		hm, _ := HarmonicMean(vals)
		return hm <= gm*(1+1e-9) && gm <= am*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestVariance(t *testing.T) {
	v, err := Variance([]float64{1, 1, 1})
	if err != nil || v != 0 {
		t.Errorf("Variance(constant) = %v, %v; want 0, nil", v, err)
	}
	v, _ = Variance([]float64{1, 3})
	if !almostEqual(v, 1, 1e-12) {
		t.Errorf("Variance = %v, want 1", v)
	}
}

func TestMinMax(t *testing.T) {
	vals := []float64{3, -1, 7, 0}
	mn, _ := Min(vals)
	mx, _ := Max(vals)
	if mn != -1 || mx != 7 {
		t.Errorf("Min/Max = %v/%v, want -1/7", mn, mx)
	}
}

func TestCDF(t *testing.T) {
	c, err := NewCDF([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.At(0); got != 0 {
		t.Errorf("At(0) = %v, want 0", got)
	}
	if got := c.At(2); got != 0.5 {
		t.Errorf("At(2) = %v, want 0.5", got)
	}
	if got := c.At(4); got != 1 {
		t.Errorf("At(4) = %v, want 1", got)
	}
	if got := c.Quantile(0.5); !almostEqual(got, 2.5, 1e-9) {
		t.Errorf("Quantile(0.5) = %v, want 2.5", got)
	}
	if c.Len() != 4 {
		t.Errorf("Len = %d, want 4", c.Len())
	}
}

func TestCDFPoints(t *testing.T) {
	c, _ := NewCDF([]float64{0, 10})
	pts := c.Points(11)
	if len(pts) != 11 {
		t.Fatalf("len(pts) = %d", len(pts))
	}
	if pts[0][0] != 0 || pts[10][0] != 10 {
		t.Errorf("x range = [%v,%v], want [0,10]", pts[0][0], pts[10][0])
	}
	// CDF points must be monotone non-decreasing in y.
	for i := 1; i < len(pts); i++ {
		if pts[i][1] < pts[i-1][1] {
			t.Errorf("non-monotone CDF at %d: %v < %v", i, pts[i][1], pts[i-1][1])
		}
	}
	if pts[10][1] != 1 {
		t.Errorf("final CDF value = %v, want 1", pts[10][1])
	}
}

func TestOnlineMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 1000)
	var o Online
	for i := range vals {
		vals[i] = rng.NormFloat64()*3 + 7
		o.Add(vals[i])
	}
	bm, _ := Mean(vals)
	bv, _ := Variance(vals)
	if !almostEqual(o.Mean(), bm, 1e-9) {
		t.Errorf("online mean %v != batch %v", o.Mean(), bm)
	}
	if !almostEqual(o.Variance(), bv, 1e-6) {
		t.Errorf("online var %v != batch %v", o.Variance(), bv)
	}
	mn, _ := Min(vals)
	mx, _ := Max(vals)
	if o.Min() != mn || o.Max() != mx {
		t.Errorf("online min/max mismatch")
	}
	if o.N() != 1000 {
		t.Errorf("N = %d", o.N())
	}
}

func TestOnlineEmpty(t *testing.T) {
	var o Online
	if o.Mean() != 0 || o.Variance() != 0 || o.N() != 0 {
		t.Errorf("zero-value Online not zeroed")
	}
}

func TestMovingAverageWindow(t *testing.T) {
	m := NewMovingAverage(3)
	if m.Mean() != 0 || m.Len() != 0 {
		t.Fatalf("empty window: mean=%v len=%d", m.Mean(), m.Len())
	}
	m.Add(1)
	m.Add(2)
	if !almostEqual(m.Mean(), 1.5, 1e-12) || m.Len() != 2 {
		t.Errorf("partial window: mean=%v len=%d", m.Mean(), m.Len())
	}
	m.Add(3)
	m.Add(10) // evicts 1
	if !almostEqual(m.Mean(), 5, 1e-12) || m.Len() != 3 {
		t.Errorf("full window: mean=%v len=%d, want 5, 3", m.Mean(), m.Len())
	}
}

// Property: moving average always equals the mean of the last w values.
func TestMovingAverageProperty(t *testing.T) {
	f := func(raw []float64, w uint8) bool {
		window := int(w%16) + 1
		m := NewMovingAverage(window)
		var hist []float64
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e9 {
				continue
			}
			m.Add(v)
			hist = append(hist, v)
			start := len(hist) - window
			if start < 0 {
				start = 0
			}
			want, _ := Mean(hist[start:])
			if !almostEqual(m.Mean(), want, 1e-6*(1+math.Abs(want))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFitLinearExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 2x + 1
	fit, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 2, 1e-9) || !almostEqual(fit.Intercept, 1, 1e-9) {
		t.Errorf("fit = %+v, want slope 2 intercept 1", fit)
	}
	if !almostEqual(fit.R2, 1, 1e-9) {
		t.Errorf("R2 = %v, want 1", fit.R2)
	}
	if !almostEqual(fit.Predict(10), 21, 1e-9) {
		t.Errorf("Predict(10) = %v, want 21", fit.Predict(10))
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := FitLinear([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := FitLinear([]float64{2, 2}, []float64{1, 5}); err == nil {
		t.Error("degenerate x accepted")
	}
}

func TestFitLinearNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 3*xs[i] - 4 + rng.NormFloat64()*0.01
	}
	fit, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 3, 1e-3) || !almostEqual(fit.Intercept, -4, 0.05) {
		t.Errorf("fit = %+v", fit)
	}
	if fit.R2 < 0.9999 {
		t.Errorf("R2 = %v too low", fit.R2)
	}
}

func TestReservoirSmallStream(t *testing.T) {
	r := NewReservoir(10, 1)
	for i := 0; i < 5; i++ {
		r.Add(float64(i))
	}
	if r.Seen() != 5 {
		t.Errorf("Seen = %d", r.Seen())
	}
	s := r.Sample()
	if len(s) != 5 {
		t.Fatalf("sample len = %d, want 5", len(s))
	}
	sort.Float64s(s)
	for i, v := range s {
		if v != float64(i) {
			t.Errorf("sample[%d] = %v", i, v)
		}
	}
}

func TestReservoirCapacityAndUniformity(t *testing.T) {
	const n = 20000
	r := NewReservoir(1000, 42)
	for i := 0; i < n; i++ {
		r.Add(float64(i))
	}
	if len(r.Sample()) != 1000 {
		t.Fatalf("sample len = %d, want 1000", len(r.Sample()))
	}
	// The sample mean of a uniform stream 0..n-1 should be near (n-1)/2.
	m, _ := Mean(r.Sample())
	if math.Abs(m-float64(n-1)/2) > float64(n)*0.05 {
		t.Errorf("sample mean %v far from %v", m, float64(n-1)/2)
	}
	p, err := r.Percentile(50)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-float64(n)/2) > float64(n)*0.1 {
		t.Errorf("median %v far from %v", p, float64(n)/2)
	}
}
