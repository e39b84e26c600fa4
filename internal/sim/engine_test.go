package sim

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"gemini/internal/cpu"
	"gemini/internal/telemetry"
)

// Engine tests: TestDispatchOrder pins the dispatch contract (engine.go) on
// what policies observe, and FuzzSamplingInert holds the timeline sampler to
// reading a run without changing it.

// callbackLog records every policy callback with its full observable context:
// the exact sequence a policy sees.
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

// runEngine executes one freshly-built workload/policy pair under the
// ceiling schedule (nil: uncapped) with full observability enabled, the
// timeline sampler too when sampled, returning everything comparable.
func runEngine(sampled bool, wl *Workload, pol Policy, steps []CeilingStep) (*Result, []telemetry.Decision, []telemetry.Span, []callbackLog) {
	cfg := DefaultConfig()
	cfg.RecordFreqTrace = true
	cfg.Tracer = telemetry.NewTracer(4 * wl.Len())
	cfg.Spans = telemetry.NewSpanTracer(8 * wl.Len())
	if sampled {
		cfg.Series = NewRunTimeseries(cfg.Ladder, wl.DurationMs, fuzzSampleMs)
	}
	lp := &loggingPolicy{inner: pol}
	res := run(cfg, wl, nil, lp, nil, steps)
	return res, cfg.Tracer.Ring().Snapshot(0), cfg.Spans.Spans(), lp.log
}

// tieStormPolicy deliberately provokes every tie-break path: same-instant
// planned changes and timers, past-due (clamped) timestamps, clears that
// cancel pending plans, and periodic drops — all on quantized integer
// timestamps so exact-equality ties are the norm, not the exception.
type tieStormPolicy struct {
	arrivals int
	timers   int
	levels   []cpu.Freq // the ladder's, read once so arrivals allocate nothing
}

func (p *tieStormPolicy) Name() string { return "tiestorm" }
func (p *tieStormPolicy) Init(s *Sim) {
	p.levels = s.Ladder().Levels()
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
	lv := p.levels
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

// chaosCeilings draws a ceiling schedule for a chaos run: about one
// step per 7 ms of the run, each to a random ladder level, so the ceiling
// falls and rises across the whole ladder. A third of the steps land on
// integer times, where they tie with chaosWorkload's integer arrivals and
// tieStormPolicy's planned changes and timers.
func chaosCeilings(seed int64, durationMs float64) []CeilingStep {
	rng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
	levels := cpu.DefaultLadder().Levels()
	var steps []CeilingStep
	at := 0.0
	for {
		if rng.Intn(3) == 0 {
			at = float64(int(at) + 1 + rng.Intn(10))
		} else {
			at += rng.Float64() * 12
		}
		if at > durationMs {
			return steps
		}
		steps = append(steps, CeilingStep{AtMs: at, Ceiling: levels[rng.Intn(len(levels))]})
	}
}

// fuzzSampleMs is the timeline interval of FuzzSamplingInert's sampled runs:
// short and off the workloads' integer grid, so ticks land inside accrual
// intervals.
const fuzzSampleMs = 3.7

// assertSamplingInert runs the workload/policy pair under the ceiling
// schedule with and without the timeline sampler and requires the sampled run
// to match bit for bit — result, decision trace, spans and callback sequence —
// except Events, which counts the ticks.
func assertSamplingInert(t *testing.T, mkWl func() *Workload, mkPol func() Policy, steps []CeilingStep) {
	t.Helper()
	wl := mkWl()
	res, dec, sp, log := runEngine(false, wl, mkPol(), steps)
	resS, decS, spS, logS := runEngine(true, mkWl(), mkPol(), steps)
	if ticks := uint64(telemetry.SampleCount(wl.DurationMs, fuzzSampleMs)); resS.Events-res.Events != ticks {
		t.Fatalf("sampling added %d events, want %d ticks", resS.Events-res.Events, ticks)
	}
	resS.Events = res.Events
	if !reflect.DeepEqual(res, resS) || !reflect.DeepEqual(dec, decS) || !reflect.DeepEqual(sp, spS) || !reflect.DeepEqual(log, logS) {
		t.Fatal("the timeline sampler changed the run")
	}
}

// FuzzSamplingInert draws chaos workloads, policies and ceiling schedules and
// requires each run to be the same with the timeline sampler attached.
func FuzzSamplingInert(f *testing.F) {
	f.Add(int64(1), uint8(10))
	f.Add(int64(42), uint8(100))
	f.Add(int64(-7), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		nn := int(n)%200 + 1
		mkWl := func() *Workload { return chaosWorkload(seed, nn) }
		mkPol := func() Policy { return &chaosPolicy{rng: rand.New(rand.NewSource(seed ^ 0x9e3779b9))} }
		assertSamplingInert(t, mkWl, mkPol, chaosCeilings(seed, mkWl().DurationMs))
	})
}

// TestDispatchOrder pins the engine's dispatch contract where a policy sees
// it: the kind order at one instant, insertion order within a kind, past-due
// events at the clock, what ClearPlannedChanges cancels, and events at NaN,
// +Inf and 1e18.
func TestDispatchOrder(t *testing.T) {
	levels := cpu.DefaultLadder().Levels()
	dispatch := func(wl *Workload, pol Policy, steps []CeilingStep) (*Result, []callbackLog) {
		res, _, _, log := runEngine(false, wl, pol, steps)
		return res, log
	}
	// timers lists the timer callbacks of log as "tag@now".
	timers := func(log []callbackLog) []string {
		var out []string
		for _, c := range log {
			if c.kind == "timer" {
				out = append(out, strconv.FormatInt(c.tag, 10)+"@"+strconv.FormatFloat(c.now, 'g', -1, 64))
			}
		}
		return out
	}

	t.Run("kinds", func(t *testing.T) {
		// The lone request completes at T; a planned change, a ceiling step,
		// an arrival and a timer are all due at T too.
		probe := mkWorkload(40, 100, [2]float64{0, 27})
		at := Run(DefaultConfig(), probe, &hookPolicy{}).Requests[0].FinishMs
		planned, ceiling := levels[len(levels)/2], levels[0]
		pol := &hookPolicy{init: func(s *Sim) {
			s.SetTimer(at, 7)
			s.PlanFreqChange(at, planned)
		}}
		res, log := dispatch(mkWorkload(40, 100, [2]float64{0, 27}, [2]float64{at, 5}), pol,
			[]CeilingStep{{AtMs: at, Ceiling: ceiling}})
		var got []string
		for _, c := range log {
			if c.now == at {
				got = append(got, c.kind+"@"+strconv.FormatFloat(float64(c.freq), 'g', -1, 64))
			}
		}
		// The departure runs at the old frequency, the arrival under the
		// ceiling. The planned change comes before the ceiling step: the
		// core goes down to the planned level and then to the ceiling, two
		// transitions; the other way round the planned change would be
		// hidden under the ceiling and cost none.
		low := "@" + strconv.FormatFloat(float64(ceiling), 'g', -1, 64)
		want := []string{"departure@2.7", "arrival" + low, "start" + low, "timer" + low}
		if !reflect.DeepEqual(got, want) || res.Transitions != 2 {
			t.Errorf("callbacks at %v ms: %v with %d transitions, want %v with 2", at, got, res.Transitions, want)
		}
	})

	t.Run("insertion order", func(t *testing.T) {
		pol := &hookPolicy{init: func(s *Sim) {
			s.SetTimer(10, 3)
			s.SetTimer(10, 1)
			s.SetTimer(10, 2)
			s.PlanFreqChange(10, levels[1])
			s.PlanFreqChange(10, levels[2])
		}}
		_, log := dispatch(mkWorkload(40, 100, [2]float64{0, 5}), pol, nil)
		if got, want := timers(log), []string{"3@10", "1@10", "2@10"}; !reflect.DeepEqual(got, want) {
			t.Errorf("timers fired %v, want %v", got, want)
		}
		if log[len(log)-1].freq != levels[2] {
			t.Errorf("after two planned changes at one instant the core runs %v GHz, want the later one's %v", log[len(log)-1].freq, levels[2])
		}
	})

	t.Run("past due", func(t *testing.T) {
		// At 5 ms a timer is armed for 1 ms and then a planned change for
		// 3 ms: both are due now, so the planned change goes first and the
		// timer fires at 5 ms, before the arrival at 6 ms.
		pol := &hookPolicy{onArrival: func(s *Sim, r *Request) {
			if r.ID == 0 {
				s.SetTimer(1, 9)
				s.PlanFreqChange(3, levels[0])
			}
		}}
		_, log := dispatch(mkWorkload(40, 100, [2]float64{5, 5}, [2]float64{6, 5}), pol, nil)
		if got, want := timers(log), []string{"9@5"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("timers fired %v, want %v", got, want)
		}
		i := slices.IndexFunc(log, func(c callbackLog) bool { return c.kind == "timer" })
		if log[i].freq != levels[0] || i+1 == len(log) || log[i+1].kind != "arrival" {
			t.Errorf("the past-due timer ran at %v GHz, callback %d of %d; want %v GHz, before the next arrival", log[i].freq, i, len(log), levels[0])
		}
		// The tie storm arms past-due events, clears and same-instant
		// clusters on every arrival: no callback may see the clock go back.
		_, log = dispatch(tieWorkload(150), &tieStormPolicy{}, chaosCeilings(150, tieWorkload(150).DurationMs))
		for i := 1; i < len(log); i++ {
			if log[i].now < log[i-1].now {
				t.Fatalf("callback %d (%s) at %v ms, after %s at %v ms", i, log[i].kind, log[i].now, log[i-1].kind, log[i-1].now)
			}
		}
	})

	t.Run("clear", func(t *testing.T) {
		// The arrival at 5 ms cancels both planned changes; the timers still
		// fire, and a change planned after the clear still applies.
		pol := &hookPolicy{
			init: func(s *Sim) {
				s.PlanFreqChange(10, levels[0])
				s.SetTimer(10, 1)
				s.SetTimer(20, 2)
				s.PlanFreqChange(20, levels[1])
			},
			onArrival: func(s *Sim, r *Request) { s.ClearPlannedChanges() },
			onTimer: func(s *Sim, tag int64) {
				if tag == 1 {
					s.PlanFreqChange(15, levels[2])
				}
			},
		}
		res, log := dispatch(mkWorkload(40, 100, [2]float64{5, 1}), pol, nil)
		if got, want := timers(log), []string{"1@10", "2@20"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("timers fired %v, want %v", got, want)
		}
		if f := log[len(log)-1].freq; f != levels[2] || res.Transitions != 1 {
			t.Errorf("the last timer sees %v GHz after %d transitions, want %v GHz after 1: only the change planned after the clear",
				f, res.Transitions, levels[2])
		}
	})

	t.Run("far times", func(t *testing.T) {
		pol := &hookPolicy{init: func(s *Sim) {
			s.SetTimer(math.NaN(), 1)
			s.PlanFreqChange(math.NaN(), levels[0])
			s.SetTimer(math.Inf(1), 2)
			s.PlanFreqChange(math.Inf(1), levels[1])
			s.SetTimer(1e18, 3)
			s.PlanFreqChange(1e18, levels[2])
		}}
		res, log := dispatch(mkWorkload(40, 2e18, [2]float64{0, 5}), pol, nil)
		if got, want := timers(log), []string{"3@1e+18"}; !reflect.DeepEqual(got, want) {
			t.Errorf("timers fired %v, want %v", got, want)
		}
		if f := log[len(log)-1].freq; f != levels[2] || res.Transitions != 1 || res.Completed != 1 || math.IsInf(res.EnergyMJ, 0) {
			t.Errorf("the 1e18 timer sees %v GHz after %d transitions (%d completed, %v mJ), want %v GHz after 1: "+
				"only the 1e18 planned change may apply", f, res.Transitions, res.Completed, res.EnergyMJ, levels[2])
		}
	})
}
