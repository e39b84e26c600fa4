package harness

import (
	"gemini/internal/predictor"
	"gemini/internal/stats"
)

// Fig6Data carries the feature-importance sweep.
type Fig6Data struct {
	Points []predictor.SweepPoint
}

// Fig6 reproduces the feature-addition sweep of Fig. 6: classifier
// accuracy (±1 ms) as Table II features are added one at a time in the
// figure's bottom-to-top order. The paper goes from 23% with the posting-list
// length alone to 89% with all features, with a few features hurting.
func (p *Platform) Fig6() (*Report, *Fig6Data) {
	pts := predictor.FeatureSweep(p.Dataset, p.Opt.NNConfig, nil)
	data := &Fig6Data{Points: pts}
	r := &Report{
		Title:  "Fig. 6 — prediction accuracy vs feature set",
		Header: []string{"+Feature", "Accuracy(±1ms)", "Δ"},
	}
	prev := 0.0
	for i, pt := range pts {
		delta := pt.Accuracy - prev
		mark := ""
		if i > 0 && delta < 0 {
			mark = " (hurts)"
		}
		r.AddRow(pt.Feature, pct(pt.Accuracy), f2(delta*100)+"pp"+mark)
		prev = pt.Accuracy
	}
	return r, data
}

// Fig7Data carries the model-comparison numbers.
type Fig7Data struct {
	Evals        []predictor.Eval
	AvgServiceMs float64
}

// Fig7 reproduces the model comparison of Fig. 7: prediction error rate and
// inference overhead for the linear classifier (paper: 73% / 64 µs), the NN
// regressor (24% / 66 µs, ±4 ms threshold) and the NN classifier (11% /
// 79 µs, ±1 ms), against the average request service time.
func (p *Platform) Fig7() (*Report, *Fig7Data) {
	lin := predictor.TrainLinear(p.Dataset.Train, p.Opt.NNConfig)
	reg := predictor.TrainRegressor(p.Dataset.Train, p.Opt.NNConfig)

	// The paper scores the regressor at a ±4 ms threshold and the
	// classifiers at ±1 ms; the regressor is additionally reported at ±1 ms
	// here because our simulated residuals are tighter than the testbed's,
	// which makes the ±4 ms row trivially easy (see EXPERIMENTS.md).
	evals := []predictor.Eval{
		predictor.Evaluate(lin, p.Dataset.Test, 1.0),
		predictor.Evaluate(reg, p.Dataset.Test, 4.0),
		predictor.Evaluate(reg, p.Dataset.Test, 1.0),
		predictor.Evaluate(p.Classifier, p.Dataset.Test, 1.0),
	}
	var times []float64
	for _, s := range p.Dataset.Test {
		times = append(times, s.MeasuredMs)
	}
	avg, _ := stats.Mean(times)
	data := &Fig7Data{Evals: evals, AvgServiceMs: avg}
	clfIdx := len(evals) - 1

	r := &Report{
		Title:  "Fig. 7 — prediction error and overhead per model",
		Header: []string{"Model", "Error rate", "Tol (ms)", "MAE (ms)", "Overhead (µs)"},
	}
	for _, e := range evals {
		r.AddRow(e.Model, pct(e.ErrorRate), f1(e.TolMs), f2(e.MAEMs), f1(e.OverheadUs))
	}
	r.Note("average request service time: %.0f µs (overhead is %.0fx smaller)",
		avg*1000, avg*1000/evals[clfIdx].OverheadUs)
	r.Note("paper shape: linear worst, NN classifier best; all overheads ≪ service time")
	return r, data
}

// Fig8Data carries the error-predictor evaluation.
type Fig8Data struct {
	Accuracy     float64 // ±1 ms accuracy of the error NN (paper: 85%)
	LatencyAcc   float64 // ±1 ms accuracy of the latency NN (paper: 89%)
	PosErrorFrac float64 // fraction of test samples underpredicted by >1 ms
	NegErrorFrac float64
}

// Fig8 reproduces Fig. 8: the share of requests with significant positive /
// negative prediction error (paper: ≈5.5% each) and the error predictor's
// accuracy (paper: 85%).
func (p *Platform) Fig8() (*Report, *Fig8Data) {
	data := &Fig8Data{
		Accuracy:   predictor.EvaluateError(p.ErrPred, p.Classifier, p.Dataset.Test, 1.0),
		LatencyAcc: 1 - predictor.Evaluate(p.Classifier, p.Dataset.Test, 1.0).ErrorRate,
	}
	pos, neg := 0, 0
	for _, s := range p.Dataset.Test {
		e := p.Classifier.PredictMs(s.Features) - s.MeasuredMs
		if e > 1 {
			pos++
		}
		if e < -1 {
			neg++
		}
	}
	n := float64(len(p.Dataset.Test))
	data.PosErrorFrac = float64(pos) / n
	data.NegErrorFrac = float64(neg) / n

	r := &Report{Title: "Fig. 8 — error predictor"}
	r.Note("latency NN accuracy (±1ms): %s (paper: 89%%)", pct(data.LatencyAcc))
	r.Note("positive errors >1ms: %s, negative errors >1ms: %s (paper: ≈5.5%% each)",
		pct(data.PosErrorFrac), pct(data.NegErrorFrac))
	r.Note("error-predictor accuracy (±1ms on residuals): %s (paper: 85%%)", pct(data.Accuracy))
	return r, data
}
