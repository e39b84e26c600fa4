package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"gemini/internal/cpu"
	"gemini/internal/telemetry"
)

// Differential tests: the heap engine must be indistinguishable from the
// reference linear engine on every observable surface — results (latencies,
// energy, event counts), decision traces, span waterfalls, and the exact
// sequence of policy callbacks. These tests run the same workload+policy
// under both engines and require deep equality.

// callbackLog records every policy callback with its full observable context
// so the two engines can be compared on the exact sequence a policy sees.
type callbackLog struct {
	kind  string
	now   float64
	freq  cpu.Freq
	qlen  int
	reqID int
	tag   int64
}

// loggingPolicy wraps a policy, recording each callback before delegating.
type loggingPolicy struct {
	inner Policy
	log   []callbackLog
}

func (p *loggingPolicy) Name() string { return p.inner.Name() }
func (p *loggingPolicy) record(kind string, s *Sim, reqID int, tag int64) {
	p.log = append(p.log, callbackLog{
		kind: kind, now: s.Now(), freq: s.Freq(), qlen: len(s.Queue()),
		reqID: reqID, tag: tag,
	})
}
func (p *loggingPolicy) Init(s *Sim) {
	p.record("init", s, -1, 0)
	p.inner.Init(s)
}
func (p *loggingPolicy) OnArrival(s *Sim, r *Request) {
	p.record("arrival", s, r.ID, 0)
	p.inner.OnArrival(s, r)
}
func (p *loggingPolicy) OnStart(s *Sim, r *Request) {
	p.record("start", s, r.ID, 0)
	p.inner.OnStart(s, r)
}
func (p *loggingPolicy) OnDeparture(s *Sim, r *Request) {
	p.record("departure", s, r.ID, 0)
	p.inner.OnDeparture(s, r)
}
func (p *loggingPolicy) OnTimer(s *Sim, tag int64) {
	p.record("timer", s, -1, tag)
	p.inner.OnTimer(s, tag)
}

// runEngine executes one freshly-built workload/policy pair under the given
// engine with full observability enabled, the timeline sampler too when
// sampled, returning everything comparable.
func runEngine(linear, sampled bool, wl *Workload, pol Policy) (*Result, []telemetry.Decision, []telemetry.Span, []callbackLog) {
	cfg := DefaultConfig()
	cfg.linear = linear
	cfg.RecordFreqTrace = true
	cfg.Tracer = telemetry.NewTracer(4 * len(wl.Requests))
	cfg.Spans = telemetry.NewSpanTracer(8 * len(wl.Requests))
	if sampled {
		cfg.Series = NewRunTimeseries(cfg.Ladder, wl.DurationMs, fuzzSampleMs)
	}
	lp := &loggingPolicy{inner: pol}
	res := Run(cfg, wl, lp)
	return res, cfg.Tracer.Ring().Snapshot(0), cfg.Spans.Spans(), lp.log
}

// assertEnginesEqual runs both engines on independently-built (but identical)
// workloads and policies and requires every observable to match exactly.
func assertEnginesEqual(t *testing.T, label string, mkWl func() *Workload, mkPol func() Policy) {
	t.Helper()
	resL, decL, spL, logL := runEngine(true, false, mkWl(), mkPol())
	resH, decH, spH, logH := runEngine(false, false, mkWl(), mkPol())

	if !reflect.DeepEqual(logL, logH) {
		n := len(logL)
		if len(logH) < n {
			n = len(logH)
		}
		for i := 0; i < n; i++ {
			if logL[i] != logH[i] {
				t.Fatalf("%s: callback %d diverges:\n  linear: %+v\n  heap:   %+v",
					label, i, logL[i], logH[i])
			}
		}
		t.Fatalf("%s: callback log lengths diverge: linear %d, heap %d",
			label, len(logL), len(logH))
	}
	if !reflect.DeepEqual(resL, resH) {
		t.Fatalf("%s: results diverge:\n  linear: %+v\n  heap:   %+v", label, resL, resH)
	}
	if resL.Events != resH.Events {
		t.Fatalf("%s: event counts diverge: linear %d, heap %d", label, resL.Events, resH.Events)
	}
	if !reflect.DeepEqual(decL, decH) {
		t.Fatalf("%s: decision traces diverge (%d vs %d decisions)", label, len(decL), len(decH))
	}
	if !reflect.DeepEqual(spL, spH) {
		t.Fatalf("%s: span traces diverge (%d vs %d spans)", label, len(spL), len(spH))
	}
}

// tieStormPolicy deliberately provokes every tie-break path: same-instant
// planned changes and timers, past-due (clamped) timestamps, clears that
// cancel pending plans, and periodic drops — all on quantized integer
// timestamps so exact-equality ties are the norm, not the exception.
type tieStormPolicy struct {
	arrivals int
	timers   int
}

func (p *tieStormPolicy) Name() string { return "tiestorm" }
func (p *tieStormPolicy) Init(s *Sim) {
	s.SetFreq(cpu.FDefault)
	// Three timers at the same instant plus one already in the past (clamps
	// to now=0): four same-instant events right at t=10 and t=0.
	s.SetTimer(10, 1)
	s.SetTimer(10, 2)
	s.SetTimer(10, 3)
	s.SetTimer(-5, 4)
}
func (p *tieStormPolicy) OnArrival(s *Sim, r *Request) {
	p.arrivals++
	now := s.Now()
	lv := s.Ladder().Levels()
	// Two plans at the same future instant, one at the current instant, one
	// in the past (both clamp to now) — then sometimes cancel them all and
	// replan, exercising generation-based clearing under ties.
	s.PlanFreqChange(now+4, lv[p.arrivals%len(lv)])
	s.PlanFreqChange(now+4, lv[(p.arrivals+3)%len(lv)])
	s.PlanFreqChange(now, lv[(p.arrivals+5)%len(lv)])
	s.PlanFreqChange(now-2, lv[(p.arrivals+1)%len(lv)])
	if p.arrivals%3 == 0 {
		s.ClearPlannedChanges()
		s.PlanFreqChange(now+4, lv[(p.arrivals+2)%len(lv)])
	}
	s.SetTimer(now+4, int64(100+p.arrivals)) // collides with the planned instant
	if p.arrivals%7 == 0 {
		if q := s.Queue(); len(q) > 1 {
			s.Drop(q[len(q)-1])
		}
	}
}
func (p *tieStormPolicy) OnStart(s *Sim, r *Request) {
	if r.ID%5 == 0 {
		s.Stall(1)
	}
}
func (p *tieStormPolicy) OnDeparture(s *Sim, r *Request) {
	s.PlanFreqChange(s.Now(), cpu.FDefault) // same-instant with the departure
}
func (p *tieStormPolicy) OnTimer(s *Sim, tag int64) {
	p.timers++
	if tag < 100 && s.Now() < 200 {
		s.SetTimer(s.Now()+10, tag) // re-arm: keeps the same-instant cluster alive
	}
	if p.timers%4 == 0 {
		s.ClearPlannedChanges()
	}
}

// tieWorkload builds a workload with coinciding arrivals on integer
// timestamps so arrivals tie with timers and planned changes.
func tieWorkload(n int) *Workload {
	reqs := make([][2]float64, 0, n)
	for i := 0; i < n; i++ {
		at := float64((i / 2) * 4) // pairs of simultaneous arrivals every 4 ms
		work := float64(8 + (i*7)%30)
		reqs = append(reqs, [2]float64{at, work})
	}
	return mkWorkload(25, float64(n*2+50), reqs...)
}

func TestEnginesEquivalentTieStorm(t *testing.T) {
	for _, n := range []int{1, 2, 7, 40, 150} {
		assertEnginesEqual(t, "tiestorm",
			func() *Workload { return tieWorkload(n) },
			func() Policy { return &tieStormPolicy{} })
	}
}

func TestEnginesEquivalentFixed(t *testing.T) {
	assertEnginesEqual(t, "fixed",
		func() *Workload { return tieWorkload(60) },
		func() Policy { return &FixedPolicy{F: cpu.FMax} })
}

// chaosWorkload builds a pseudo-random workload; same seed, same workload.
func chaosWorkload(seed int64, n int) *Workload {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([][2]float64, 0, n)
	at := 0.0
	for i := 0; i < n; i++ {
		// Mix exact-integer arrivals (tie-prone) with irrational-ish ones.
		if rng.Intn(3) == 0 {
			at = float64(int(at) + rng.Intn(3))
		} else {
			at += rng.ExpFloat64() * 3
		}
		reqs = append(reqs, [2]float64{at, 2 + rng.Float64()*40})
	}
	return mkWorkload(30, at+100, reqs...)
}

func TestEnginesEquivalentChaos(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		n := 20 + int(seed)*7
		assertEnginesEqual(t, "chaos",
			func() *Workload { return chaosWorkload(seed, n) },
			func() Policy { return &chaosPolicy{rng: rand.New(rand.NewSource(seed * 31))} })
	}
}

// fuzzSampleMs is the timeline interval of the sampled differential runs:
// short and off the workloads' integer grid, so ticks land inside accrual
// intervals.
const fuzzSampleMs = 3.7

// assertSamplingInert runs the workload/policy pair under each engine with
// and without the timeline sampler and requires the sampled run to match bit
// for bit — result, decision trace, spans and callback sequence — except
// Events, which counts the ticks.
func assertSamplingInert(t *testing.T, mkWl func() *Workload, mkPol func() Policy) {
	t.Helper()
	for _, linear := range []bool{false, true} {
		wl := mkWl()
		res, dec, sp, log := runEngine(linear, false, wl, mkPol())
		resS, decS, spS, logS := runEngine(linear, true, mkWl(), mkPol())
		if ticks := uint64(telemetry.SampleCount(wl.DurationMs, fuzzSampleMs)); resS.Events-res.Events != ticks {
			t.Fatalf("linear=%v: sampling added %d events, want %d ticks", linear, resS.Events-res.Events, ticks)
		}
		resS.Events = res.Events
		if !reflect.DeepEqual(res, resS) || !reflect.DeepEqual(dec, decS) || !reflect.DeepEqual(sp, spS) || !reflect.DeepEqual(log, logS) {
			t.Fatalf("linear=%v: the timeline sampler changed the run", linear)
		}
	}
}

func FuzzEngineEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(10))
	f.Add(int64(42), uint8(100))
	f.Add(int64(-7), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		nn := int(n)%200 + 1
		mkWl := func() *Workload { return chaosWorkload(seed, nn) }
		mkPol := func() Policy { return &chaosPolicy{rng: rand.New(rand.NewSource(seed ^ 0x9e3779b9))} }
		assertEnginesEqual(t, "fuzz", mkWl, mkPol)
		assertSamplingInert(t, mkWl, mkPol)
	})
}
