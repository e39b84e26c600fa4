package sim_test

import (
	"math/rand"
	"reflect"
	"testing"

	"gemini/internal/harness"
	"gemini/internal/policy"
	"gemini/internal/sim"
	"gemini/internal/trace"
)

// TestPoliciesEngineEquivalent runs every paper policy under both event
// engines on a real platform workload and requires byte-identical results —
// the end-to-end counterpart of this package's differential tests, with the
// actual Gemini/Rubik/Pegasus control flows (timers, planned boosts, clears)
// driving the event queue.
func TestPoliciesEngineEquivalent(t *testing.T) {
	p := harness.Shared(true)
	rng := rand.New(rand.NewSource(11))
	arr := make([]float64, 0, 400)
	at := 0.0
	for i := 0; i < 400; i++ {
		at += rng.ExpFloat64() * 8 // ~125 QPS, enough queueing to matter
		arr = append(arr, at)
	}
	dur := at + 100

	for _, name := range harness.PolicyNames {
		run := func(linear bool) *sim.Result {
			cfg := p.SimConfig()
			sim.SetLinearEngine(&cfg, linear)
			cfg.RecordFreqTrace = true
			wl := p.Workload(arr, dur, 5)
			return sim.Run(cfg, wl, p.MustPolicy(name))
		}
		lin := run(true)
		cal := run(false)
		if !reflect.DeepEqual(lin, cal) {
			t.Errorf("%s: engines diverge:\n  linear:   completed=%d dropped=%d events=%d energy=%v p99=%v\n  calendar: completed=%d dropped=%d events=%d energy=%v p99=%v",
				name,
				lin.Completed, lin.Dropped, lin.Events, lin.EnergyMJ, lin.TailLatencyMs(99),
				cal.Completed, cal.Dropped, cal.Events, cal.EnergyMJ, cal.TailLatencyMs(99))
		}
	}
}

// TestCachedPredictionsMatchLive holds markCached to its word: a Gemini run
// that reads (S*, E*) from the platform's pool-indexed table equals, field
// for field, the same run with both networks evaluated on every arrival —
// under both engines, on one ISN and on the 12-core broker cluster.
func TestCachedPredictionsMatchLive(t *testing.T) {
	p := harness.Shared(true)
	const durationMs = 8_000
	live := func() *policy.Gemini { return policy.NewGemini(p.Classifier, p.ErrPred) }
	if g := p.MustPolicy("Gemini").(*policy.Gemini); !g.UseCachedService || !g.UseCachedErr || live().UseCachedService {
		t.Fatal("the platform's Gemini does not read the table, or a fresh one does")
	}

	for _, linear := range []bool{false, true} {
		cfg := p.SimConfig()
		sim.SetLinearEngine(&cfg, linear)

		single := func(pol sim.Policy) (*sim.Result, *sim.Workload) {
			tr := trace.GenFixedRPS(100*p.Opt.ShardFraction, durationMs, 3)
			wl := p.Workload(tr.Arrivals, durationMs, 5)
			return sim.Run(cfg, wl, pol), wl
		}
		want, wantWL := single(live())
		got, gotWL := single(p.MustPolicy("Gemini"))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("linear=%v: single-ISN results differ:\n got %+v\nwant %+v", linear, got, want)
		}
		for i, r := range gotWL.Requests {
			if w := wantWL.Requests[i]; r.PredictedMs != w.PredictedMs || r.PredErrMs != w.PredErrMs {
				t.Fatalf("linear=%v: request %d predicted (%v, %v) from the table, (%v, %v) live",
					linear, i, r.PredictedMs, r.PredErrMs, w.PredictedMs, w.PredErrMs)
			}
		}

		cluster := func(mk func(int) sim.Policy) *sim.ClusterResult {
			tr := trace.GenFixedRPS(100*p.Opt.ShardFraction*12, durationMs, 4)
			return sim.RunClusterWorkers(cfg, p.Workload(tr.Arrivals, durationMs, 6), 12, 2, mk)
		}
		wantC := cluster(func(int) sim.Policy { return live() })
		gotC := cluster(func(int) sim.Policy { return p.MustPolicy("Gemini") })
		if !reflect.DeepEqual(gotC, wantC) {
			t.Errorf("linear=%v: 12-core cluster results differ: got %d events, %v mJ; want %d events, %v mJ",
				linear, gotC.Events, gotC.EnergyMJ, wantC.Events, wantC.EnergyMJ)
		}
	}
}
