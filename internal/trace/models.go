package trace

import "math"

const (
	hourMs = 3_600_000.0
	dayMs  = 24 * hourMs
)

// WikipediaLongRate is the multi-day rate model behind Fig. 1b: a diurnal
// sinusoid whose peak-to-trough spans ≈4x (the paper's normalized RPS CDF
// tops out near 4), a day-of-week dip on weekends, and per-second noise.
// baseRPS is the mean rate.
func WikipediaLongRate(baseRPS float64) RateFunc {
	return func(tMs float64) float64 {
		day := tMs / dayMs
		diurnal := 1 + 0.62*math.Sin(2*math.Pi*(day-0.25))
		weekday := 1.0
		if int(day)%7 >= 5 { // days 5,6 of each week are the weekend dip
			weekday = 0.78
		}
		noise := hashNoise(int64(tMs/1000), 0.25, 0x5EED)
		r := baseRPS * diurnal * weekday * noise
		if r < 0.05*baseRPS {
			r = 0.05 * baseRPS
		}
		return r
	}
}

// GenWikipediaLong generates the 150-hour Fig. 1b trace at an hour-scale
// resolution. To keep the arrival count tractable the base rate is modest;
// Fig. 1b's statistics are about *normalized* RPS, which is rate-invariant.
func GenWikipediaLong(baseRPS float64, hours float64, seed int64) *Trace {
	r := WikipediaLongRate(baseRPS)
	arr := GenPoisson(r, baseRPS*2.2, hours*hourMs, seed)
	return &Trace{Name: "wikipedia-long", Arrivals: arr}
}

// evalPeriodMs compresses the diurnal cycle into the 1000 s evaluation
// window the way the paper compresses Pegasus' epochs ("we scale Pegasus'
// 5s epoch length ... so as to have the same ratio between epoch length and
// load length", §VI-A): two full load cycles fit in the window.
const evalPeriodMs = 500_000.0

// WikipediaRate is the 1000 s evaluation version of the Wikipedia model
// (Fig. 12a): smooth compressed-diurnal swing plus per-second noise.
func WikipediaRate(avgRPS float64) RateFunc {
	return func(tMs float64) float64 {
		swing := 1 + 0.45*math.Sin(2*math.Pi*tMs/evalPeriodMs)
		noise := hashNoise(int64(tMs/1000), 0.20, 0xA11CE)
		return avgRPS * swing * noise
	}
}

// LuceneRate models the Lucene nightly-benchmark trace (Fig. 12b): long
// alternating high/low load plateaus (benchmark phases) with sharper
// transitions and moderate noise.
func LuceneRate(avgRPS float64) RateFunc {
	return func(tMs float64) float64 {
		phase := math.Mod(tMs, 240_000) / 240_000 // 240 s benchmark phases
		level := 1.55
		if phase >= 0.5 {
			level = 0.45
		}
		noise := hashNoise(int64(tMs/1000), 0.15, 0x1CE)
		return avgRPS * level * noise
	}
}

// TRECRate models the TREC Million Query Track trace (Fig. 12c): a slow
// drift with occasional heavy bursts (batch-submitted query blocks) on a
// lighter baseline.
func TRECRate(avgRPS float64) RateFunc {
	return func(tMs float64) float64 {
		drift := 1 + 0.30*math.Sin(2*math.Pi*tMs/evalPeriodMs+1.3)
		burst := 1.0
		if hashNoise(int64(tMs/20_000), 0.5, 0x7EC) > 1.34 { // ~16% of 20 s blocks
			burst = 2.1
		}
		noise := hashNoise(int64(tMs/1000), 0.30, 0x77EC)
		r := avgRPS * 0.82 * drift * burst * noise
		if r < 0.05*avgRPS {
			r = 0.05 * avgRPS
		}
		return r
	}
}

// GenEvalTrace generates one of the named 1000 s evaluation traces at the
// given average RPS.
func GenEvalTrace(name string, avgRPS, durationMs float64, seed int64) *Trace {
	var r RateFunc
	switch name {
	case "wiki":
		r = WikipediaRate(avgRPS)
	case "lucene":
		r = LuceneRate(avgRPS)
	case "trec":
		r = TRECRate(avgRPS)
	default:
		r = func(float64) float64 { return avgRPS }
	}
	arr := GenPoisson(r, avgRPS*3.2, durationMs, seed)
	return &Trace{Name: name, Arrivals: arr}
}
