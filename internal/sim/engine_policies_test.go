package sim_test

import (
	"math/rand"
	"reflect"
	"testing"

	"gemini/internal/harness"
	"gemini/internal/sim"
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
