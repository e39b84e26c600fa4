package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gemini/internal/cpu"
)

// hookPolicy lets tests inject behavior per callback.
type hookPolicy struct {
	init        func(*Sim)
	onArrival   func(*Sim, *Request)
	onStart     func(*Sim, *Request)
	onDeparture func(*Sim, *Request)
	onTimer     func(*Sim, int64)
}

func (p *hookPolicy) Name() string { return "hook" }
func (p *hookPolicy) Init(s *Sim) {
	if p.init != nil {
		p.init(s)
	}
}
func (p *hookPolicy) OnArrival(s *Sim, r *Request) {
	if p.onArrival != nil {
		p.onArrival(s, r)
	}
}
func (p *hookPolicy) OnStart(s *Sim, r *Request) {
	if p.onStart != nil {
		p.onStart(s, r)
	}
}
func (p *hookPolicy) OnDeparture(s *Sim, r *Request) {
	if p.onDeparture != nil {
		p.onDeparture(s, r)
	}
}
func (p *hookPolicy) OnTimer(s *Sim, tag int64) {
	if p.onTimer != nil {
		p.onTimer(s, tag)
	}
}

// mkWorkload hand-builds a workload from (arrival, work) pairs.
func mkWorkload(budget, duration float64, reqs ...[2]float64) *Workload {
	wl := &Workload{BudgetMs: budget, DurationMs: duration}
	for i, rw := range reqs {
		wl.Requests = append(wl.Requests, &Request{
			ID:         i,
			WorkTotal:  cpu.Work(rw[1]),
			BaseWork:   cpu.Work(rw[1]),
			ArrivalMs:  rw[0],
			DeadlineMs: rw[0] + budget,
		})
	}
	return wl
}

func TestSingleRequestAtDefault(t *testing.T) {
	// 27 GHz·ms at 2.7 GHz = 10 ms service.
	wl := mkWorkload(40, 100, [2]float64{5, 27})
	res := Run(DefaultConfig(), wl, &FixedPolicy{F: cpu.FDefault})
	if res.Completed != 1 || res.Dropped != 0 {
		t.Fatalf("completed=%d dropped=%d", res.Completed, res.Dropped)
	}
	r := wl.Requests[0]
	if math.Abs(r.FinishMs-15) > 1e-9 {
		t.Errorf("finish = %v, want 15", r.FinishMs)
	}
	if math.Abs(res.Latencies[0]-10) > 1e-9 {
		t.Errorf("latency = %v, want 10", res.Latencies[0])
	}
	if res.Violations != 0 {
		t.Errorf("violations = %d", res.Violations)
	}
	if res.DurationMs != 100 {
		t.Errorf("duration = %v", res.DurationMs)
	}
}

func TestFrequencyScalingSlowsRequest(t *testing.T) {
	wl := mkWorkload(200, 300, [2]float64{0, 27})
	cfg := DefaultConfig()
	res := Run(cfg, wl, &FixedPolicy{F: 1.2})
	// One transition at t=0 (2.7 -> 1.2) stalls Tdvfs, then 27/1.2 = 22.5ms.
	want := cfg.TdvfsMs + 27/1.2
	if math.Abs(res.Latencies[0]-want) > 1e-9 {
		t.Errorf("latency = %v, want %v", res.Latencies[0], want)
	}
	if res.Transitions != 1 {
		t.Errorf("transitions = %d", res.Transitions)
	}
}

func TestFIFOQueueing(t *testing.T) {
	// Two requests, second arrives while first executes.
	wl := mkWorkload(100, 200, [2]float64{0, 27}, [2]float64{2, 13.5})
	res := Run(DefaultConfig(), wl, &FixedPolicy{F: cpu.FDefault})
	r0, r1 := wl.Requests[0], wl.Requests[1]
	if math.Abs(r0.FinishMs-10) > 1e-9 {
		t.Errorf("r0 finish = %v", r0.FinishMs)
	}
	// r1 starts at 10, runs 5 ms.
	if math.Abs(r1.StartMs-10) > 1e-9 || math.Abs(r1.FinishMs-15) > 1e-9 {
		t.Errorf("r1 start/finish = %v/%v, want 10/15", r1.StartMs, r1.FinishMs)
	}
	if math.Abs(r1.LatencyMs()-13) > 1e-9 {
		t.Errorf("r1 latency = %v (queueing time included)", r1.LatencyMs())
	}
	if res.Completed != 2 {
		t.Errorf("completed = %d", res.Completed)
	}
}

func TestPlannedBoostChangesCompletion(t *testing.T) {
	// 54 GHz·ms: at 1.35 GHz would take 40 ms; boost to 2.7 at t=10.
	wl := mkWorkload(100, 200, [2]float64{0, 54})
	cfg := DefaultConfig()
	cfg.TdvfsMs = 0 // isolate the boost math
	pol := &hookPolicy{
		onStart: func(s *Sim, r *Request) {
			s.SetFreq(1.35)
			s.PlanFreqChange(10, 2.7)
		},
	}
	res := Run(cfg, wl, pol)
	// 10 ms at 1.35 does 13.5 work; remaining 40.5 at 2.7 takes 15 ms.
	want := 10 + 40.5/2.7
	if math.Abs(res.Latencies[0]-want) > 1e-9 {
		t.Errorf("latency = %v, want %v", res.Latencies[0], want)
	}
}

func TestTdvfsStallDelaysWork(t *testing.T) {
	wl := mkWorkload(100, 200, [2]float64{0, 27})
	cfg := DefaultConfig()
	cfg.TdvfsMs = 1.0
	pol := &hookPolicy{
		onStart: func(s *Sim, r *Request) { s.SetFreq(2.4) },
	}
	res := Run(cfg, wl, pol)
	want := 1.0 + 27/2.4
	if math.Abs(res.Latencies[0]-want) > 1e-9 {
		t.Errorf("latency = %v, want %v", res.Latencies[0], want)
	}
}

func TestSetFreqSameIsNoop(t *testing.T) {
	wl := mkWorkload(100, 100, [2]float64{0, 27})
	pol := &hookPolicy{
		onStart: func(s *Sim, r *Request) {
			s.SetFreq(cpu.FDefault) // same as start freq
			s.SetFreq(cpu.FDefault)
		},
	}
	res := Run(DefaultConfig(), wl, pol)
	if res.Transitions != 0 {
		t.Errorf("transitions = %d, want 0", res.Transitions)
	}
	if math.Abs(res.Latencies[0]-10) > 1e-9 {
		t.Errorf("latency = %v", res.Latencies[0])
	}
}

func TestDropRequest(t *testing.T) {
	wl := mkWorkload(5, 100, [2]float64{0, 270}) // impossible: 100 ms of work, 5 ms budget
	pol := &hookPolicy{
		onArrival: func(s *Sim, r *Request) { s.Drop(r) },
	}
	res := Run(DefaultConfig(), wl, pol)
	if res.Dropped != 1 || res.Completed != 0 {
		t.Fatalf("dropped=%d completed=%d", res.Dropped, res.Completed)
	}
	if res.Violations != 0 {
		t.Errorf("violations = %d (drops are tracked separately)", res.Violations)
	}
	if res.DropRate() != 1 {
		t.Errorf("drop rate = %v", res.DropRate())
	}
	if !wl.Requests[0].Dropped || !wl.Requests[0].Violated() {
		t.Errorf("request flags wrong: %+v", wl.Requests[0])
	}
}

func TestDropHeadStartsNext(t *testing.T) {
	wl := mkWorkload(50, 200, [2]float64{0, 2700}, [2]float64{1, 27})
	pol := &hookPolicy{
		onArrival: func(s *Sim, r *Request) {
			if r.ID == 1 {
				s.Drop(s.Queue()[0]) // drop the executing head
			}
		},
	}
	res := Run(DefaultConfig(), wl, pol)
	if res.Dropped != 1 || res.Completed != 1 {
		t.Fatalf("dropped=%d completed=%d", res.Dropped, res.Completed)
	}
	r1 := wl.Requests[1]
	if math.Abs(r1.StartMs-1) > 1e-9 {
		t.Errorf("r1 started at %v, want 1 (right after the drop)", r1.StartMs)
	}
}

// TestPolicySeesHeadProgress holds syncHead to its word under both engines: a
// policy reading Queue()[0].WorkDone in OnArrival or OnTimer sees the work
// the executing head has done up to that instant. The run stays at one
// frequency and the probe mirrors the engine's stall clock (every arrival
// stalls the core for the prediction overhead), so the expected value is the
// un-stalled time since StartMs at that frequency. A head dropped mid-service
// keeps what it had accrued; a completed request ends at exactly WorkTotal.
func TestPolicySeesHeadProgress(t *testing.T) {
	for _, linear := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.linear = linear
		cfg.PredictOverheadMs = 0.3
		wl := BenchWorkloadRate(300, 3, 12)

		var (
			head       *Request // the executing request, nil while the core idles
			from       float64  // the instant want accounts up to
			want, last cpu.Work // expected and last seen head.WorkDone
			stallUntil float64
			seen       int
			droppedAt  = map[int]cpu.Work{}
		)
		observe := func(s *Sim) {
			if head == nil {
				return
			}
			h := s.Queue()[0]
			if h != head || !h.Started {
				t.Fatalf("linear=%v t=%v: queue head is request %d, request %d is executing", linear, s.Now(), h.ID, head.ID)
			}
			ran := s.Now() - math.Max(from, stallUntil)
			if ran > 0 {
				want += cpu.WorkFor(ran, s.Freq())
				seen++
			}
			from = s.Now()
			switch {
			case math.Abs(float64(h.WorkDone-want)) > 1e-9*(1+float64(want)):
				t.Fatalf("linear=%v t=%v request %d: WorkDone %v, want %v (un-stalled time since StartMs %v at %v GHz)",
					linear, s.Now(), h.ID, h.WorkDone, want, h.StartMs, s.Freq())
			case h.WorkDone > h.WorkTotal:
				t.Fatalf("linear=%v t=%v request %d: WorkDone %v exceeds WorkTotal %v", linear, s.Now(), h.ID, h.WorkDone, h.WorkTotal)
			case h.WorkDone < last || (ran > 0 && h.WorkDone == last):
				t.Fatalf("linear=%v t=%v request %d: WorkDone %v after %v, %v ms of execution later", linear, s.Now(), h.ID, h.WorkDone, last, ran)
			}
			last = h.WorkDone
		}
		pol := &hookPolicy{
			init:        func(s *Sim) { s.SetTimer(0.7, 1) },
			onStart:     func(s *Sim, r *Request) { head, from, want, last = r, s.Now(), 0, 0 },
			onDeparture: func(*Sim, *Request) { head = nil },
			onArrival: func(s *Sim, r *Request) {
				observe(s)
				stallUntil = math.Max(stallUntil, s.Now()+cfg.PredictOverheadMs)
			},
			onTimer: func(s *Sim, tag int64) {
				observe(s)
				if h := head; h != nil && h.ID%4 == 0 && h.WorkDone > 0 {
					droppedAt[h.ID] = h.WorkDone
					head = nil
					s.Drop(h) // starts the next request: onStart runs inside
				}
				s.SetTimer(s.Now()+0.7, tag)
			},
		}
		Run(cfg, wl, pol)

		if seen < len(wl.Requests) || len(droppedAt) < 10 {
			t.Fatalf("linear=%v: %d observations of a running head and %d mid-service drops; the probe saw too little", linear, seen, len(droppedAt))
		}
		for _, r := range wl.Requests {
			at, dropped := droppedAt[r.ID]
			switch {
			case r.Done == r.Dropped || r.Dropped != dropped:
				t.Errorf("linear=%v request %d: done=%v dropped=%v, the probe dropped it: %v", linear, r.ID, r.Done, r.Dropped, dropped)
			case r.Done && r.WorkDone != r.WorkTotal:
				t.Errorf("linear=%v request %d completed with WorkDone %v, WorkTotal %v", linear, r.ID, r.WorkDone, r.WorkTotal)
			case r.Dropped && (r.WorkDone != at || at >= r.WorkTotal):
				t.Errorf("linear=%v request %d dropped at WorkDone %v of %v, left with %v", linear, r.ID, at, r.WorkTotal, r.WorkDone)
			}
		}
	}
}

func TestTimerFires(t *testing.T) {
	wl := mkWorkload(50, 100, [2]float64{0, 13.5})
	var fired []float64
	var tags []int64
	pol := &hookPolicy{
		init: func(s *Sim) { s.SetTimer(20, 7) },
		onTimer: func(s *Sim, tag int64) {
			fired = append(fired, s.Now())
			tags = append(tags, tag)
			if len(fired) < 3 {
				s.SetTimer(s.Now()+20, tag+1)
			}
		},
	}
	Run(DefaultConfig(), wl, pol)
	if len(fired) != 3 {
		t.Fatalf("timer fired %d times", len(fired))
	}
	if fired[0] != 20 || fired[1] != 40 || fired[2] != 60 {
		t.Errorf("fire times = %v", fired)
	}
	if tags[0] != 7 || tags[2] != 9 {
		t.Errorf("tags = %v", tags)
	}
}

func TestViolationCounting(t *testing.T) {
	// 27 work at 2.7 = 10 ms, but budget is 8 ms -> violation.
	wl := mkWorkload(8, 100, [2]float64{0, 27})
	res := Run(DefaultConfig(), wl, &FixedPolicy{F: cpu.FDefault})
	if res.Violations != 1 || res.Completed != 1 {
		t.Errorf("violations=%d completed=%d", res.Violations, res.Completed)
	}
	if res.ViolationRate() != 1 {
		t.Errorf("violation rate = %v", res.ViolationRate())
	}
}

func TestEnergyAccounting(t *testing.T) {
	wl := mkWorkload(50, 100, [2]float64{0, 27})
	cfg := DefaultConfig()
	res := Run(cfg, wl, &FixedPolicy{F: cpu.FDefault})
	// 10 ms busy + 90 ms idle at 2.7 GHz.
	m := cfg.Power
	want := m.CoreW(2.7, true)*10 + m.CoreW(2.7, false)*90
	if math.Abs(res.EnergyMJ-want) > 1e-6 {
		t.Errorf("energy = %v mJ, want %v", res.EnergyMJ, want)
	}
	if math.Abs(res.Utilization-0.1) > 1e-9 {
		t.Errorf("utilization = %v, want 0.1", res.Utilization)
	}
	if math.Abs(res.AvgCorePowW-want/100) > 1e-9 {
		t.Errorf("avg power = %v", res.AvgCorePowW)
	}
}

func TestLowerFrequencySavesEnergyOnFixedWindow(t *testing.T) {
	wl1 := mkWorkload(100, 200, [2]float64{0, 27})
	wl2 := mkWorkload(100, 200, [2]float64{0, 27})
	fast := Run(DefaultConfig(), wl1, &FixedPolicy{F: 2.7})
	slow := Run(DefaultConfig(), wl2, &FixedPolicy{F: 1.4})
	if slow.EnergyMJ >= fast.EnergyMJ {
		t.Errorf("slow run energy %v >= fast %v", slow.EnergyMJ, fast.EnergyMJ)
	}
}

func TestPredictionOverheadStallsCore(t *testing.T) {
	wl := mkWorkload(50, 100, [2]float64{0, 27})
	cfg := DefaultConfig()
	cfg.PredictOverheadMs = 0.5
	res := Run(cfg, wl, &FixedPolicy{F: cpu.FDefault})
	if math.Abs(res.Latencies[0]-10.5) > 1e-9 {
		t.Errorf("latency = %v, want 10.5", res.Latencies[0])
	}
}

func TestSocketPowerExtrapolation(t *testing.T) {
	wl := mkWorkload(50, 100, [2]float64{0, 27})
	cfg := DefaultConfig()
	res := Run(cfg, wl, &FixedPolicy{F: cpu.FDefault})
	want := cfg.Power.UncoreW + float64(cfg.Power.Cores)*res.AvgCorePowW
	if math.Abs(res.SocketPowerW(cfg.Power)-want) > 1e-9 {
		t.Errorf("socket power mismatch")
	}
	base := Run(DefaultConfig(), mkWorkload(50, 100, [2]float64{0, 27}), &FixedPolicy{F: 2.7})
	slow := Run(DefaultConfig(), mkWorkload(50, 100, [2]float64{0, 27}), &FixedPolicy{F: 1.2})
	if s := slow.PowerSavingVs(base, cfg.Power); s <= 0 || s >= 1 {
		t.Errorf("saving = %v", s)
	}
}

func TestTailLatency(t *testing.T) {
	wl := mkWorkload(100, 500,
		[2]float64{0, 27}, [2]float64{50, 13.5}, [2]float64{100, 54}, [2]float64{200, 27})
	res := Run(DefaultConfig(), wl, &FixedPolicy{F: cpu.FDefault})
	if res.TailLatencyMs(100) != 20 {
		t.Errorf("max latency = %v, want 20", res.TailLatencyMs(100))
	}
	if res.MeanLatencyMs() <= 0 {
		t.Errorf("mean latency = %v", res.MeanLatencyMs())
	}
}

// Property: for any workload and any fixed frequency, all requests complete
// exactly (work conservation) and latencies are consistent with S = C/f when
// there is no queueing.
func TestWorkConservationProperty(t *testing.T) {
	f := func(workRaw []uint16, fIdx uint8) bool {
		ladder := cpu.DefaultLadder()
		freq := ladder.Levels()[int(fIdx)%8]
		var reqs [][2]float64
		at := 0.0
		for _, w := range workRaw {
			work := float64(w%5000)/100 + 0.5 // 0.5..50.5 GHz·ms
			reqs = append(reqs, [2]float64{at, work})
			at += 1000 // spaced out: no queueing
		}
		if len(reqs) == 0 {
			return true
		}
		wl := mkWorkload(10_000, at+1000, reqs...)
		cfg := DefaultConfig()
		res := Run(cfg, wl, &FixedPolicy{F: freq})
		if res.Completed != len(reqs) {
			return false
		}
		for i, r := range wl.Requests {
			wantLat := float64(r.WorkTotal) / float64(freq)
			if i == 0 && freq != cpu.FDefault {
				wantLat += cfg.TdvfsMs // initial transition stall
			}
			if math.Abs(r.LatencyMs()-wantLat) > 1e-6 {
				return false
			}
			if math.Abs(float64(r.WorkDone-r.WorkTotal)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestZeroRequests(t *testing.T) {
	wl := &Workload{BudgetMs: 40, DurationMs: 100}
	res := Run(DefaultConfig(), wl, &FixedPolicy{F: cpu.FDefault})
	if res.Completed != 0 || res.ViolationRate() != 0 || res.DropRate() != 0 {
		t.Errorf("empty workload metrics: %+v", res)
	}
	if res.Utilization != 0 {
		t.Errorf("utilization = %v", res.Utilization)
	}
	if math.Abs(res.DurationMs-100) > 1e-9 {
		t.Errorf("duration = %v", res.DurationMs)
	}
}

func TestPlannedChangeInPast(t *testing.T) {
	wl := mkWorkload(100, 200, [2]float64{10, 27})
	pol := &hookPolicy{
		onStart: func(s *Sim, r *Request) {
			s.PlanFreqChange(5, 1.2) // already in the past: applies immediately
		},
	}
	res := Run(DefaultConfig(), wl, pol)
	cfg := DefaultConfig()
	want := cfg.TdvfsMs + 27/1.2
	if math.Abs(res.Latencies[0]-want) > 1e-9 {
		t.Errorf("latency = %v, want %v", res.Latencies[0], want)
	}
}

func TestClearPlannedChanges(t *testing.T) {
	wl := mkWorkload(100, 200, [2]float64{0, 27})
	pol := &hookPolicy{
		onStart: func(s *Sim, r *Request) {
			s.PlanFreqChange(5, 1.2)
			s.ClearPlannedChanges()
		},
	}
	res := Run(DefaultConfig(), wl, pol)
	if math.Abs(res.Latencies[0]-10) > 1e-9 {
		t.Errorf("latency = %v, want 10 (plan cancelled)", res.Latencies[0])
	}
	if res.Transitions != 0 {
		t.Errorf("transitions = %d", res.Transitions)
	}
}

func TestFreqTraceRecording(t *testing.T) {
	wl := mkWorkload(100, 60, [2]float64{0, 54})
	cfg := DefaultConfig()
	cfg.RecordFreqTrace = true
	pol := &hookPolicy{
		onStart: func(s *Sim, r *Request) {
			s.SetFreq(1.35)
			s.PlanFreqChange(10, 2.7)
		},
	}
	res := Run(cfg, wl, pol)
	if len(res.FreqTrace) < 2 {
		t.Fatalf("trace segments = %d", len(res.FreqTrace))
	}
	// Segments are contiguous, time-ordered and cover [0, duration].
	for i, seg := range res.FreqTrace {
		if seg.EndMs <= seg.StartMs {
			t.Fatalf("segment %d empty: %+v", i, seg)
		}
		if i > 0 && seg.StartMs != res.FreqTrace[i-1].EndMs {
			t.Fatalf("gap before segment %d", i)
		}
	}
	last := res.FreqTrace[len(res.FreqTrace)-1]
	if last.EndMs != 60 {
		t.Errorf("trace ends at %v, want 60", last.EndMs)
	}
	// The trace must show the two-step plan: 1.35 then 2.7 while busy.
	sawSlow, sawBoost := false, false
	for _, seg := range res.FreqTrace {
		if seg.Busy && seg.Freq == 1.35 {
			sawSlow = true
		}
		if seg.Busy && seg.Freq == 2.7 && sawSlow {
			sawBoost = true
		}
	}
	if !sawSlow || !sawBoost {
		t.Errorf("two-step plan not visible in trace: %+v", res.FreqTrace)
	}
	// Energy reconstructed from the trace matches the accumulator.
	m := cfg.Power
	e := 0.0
	for _, seg := range res.FreqTrace {
		e += m.CoreW(seg.Freq, seg.Busy) * seg.DurationMs()
	}
	if math.Abs(e-res.EnergyMJ) > 1e-6 {
		t.Errorf("trace energy %v != accumulator %v", e, res.EnergyMJ)
	}
}

func TestFreqTraceDisabledByDefault(t *testing.T) {
	wl := mkWorkload(100, 60, [2]float64{0, 27})
	res := Run(DefaultConfig(), wl, &FixedPolicy{F: cpu.FDefault})
	if res.FreqTrace != nil {
		t.Error("trace recorded without RecordFreqTrace")
	}
}

// chaosPolicy issues random-but-valid control calls on every event: the
// simulator must never panic, lose requests, or violate work conservation.
type chaosPolicy struct {
	rng *rand.Rand
}

func (p *chaosPolicy) Name() string { return "chaos" }
func (p *chaosPolicy) Init(s *Sim) {
	s.SetFreq(s.Ladder().Levels()[p.rng.Intn(8)])
	s.SetTimer(p.rng.Float64()*50, 1)
}
func (p *chaosPolicy) act(s *Sim) {
	switch p.rng.Intn(6) {
	case 0:
		s.SetFreq(s.Ladder().Levels()[p.rng.Intn(8)])
	case 1:
		s.PlanFreqChange(s.Now()+p.rng.Float64()*30, s.Ladder().Levels()[p.rng.Intn(8)])
	case 2:
		s.ClearPlannedChanges()
	case 3:
		s.Stall(p.rng.Float64())
	case 4:
		if q := s.Queue(); len(q) > 0 && p.rng.Intn(10) == 0 {
			s.Drop(q[p.rng.Intn(len(q))])
		}
	case 5:
		s.Sleep(p.rng.Float64(), p.rng.Float64())
	}
}
func (p *chaosPolicy) OnArrival(s *Sim, r *Request)   { p.act(s) }
func (p *chaosPolicy) OnStart(s *Sim, r *Request)     { p.act(s) }
func (p *chaosPolicy) OnDeparture(s *Sim, r *Request) { p.act(s) }
func (p *chaosPolicy) OnTimer(s *Sim, tag int64) {
	p.act(s)
	if s.Now() < 900 {
		s.SetTimer(s.Now()+1+p.rng.Float64()*20, tag)
	}
}

func TestChaosPolicyInvariants(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var reqs [][2]float64
		at := 0.0
		for i := 0; i < 60; i++ {
			at += rng.ExpFloat64() * 15
			reqs = append(reqs, [2]float64{at, 1 + rng.Float64()*40})
		}
		wl := mkWorkload(40, at+200, reqs...)
		res := Run(DefaultConfig(), wl, &chaosPolicy{rng: rand.New(rand.NewSource(seed + 100))})

		if res.Completed+res.Dropped != res.Total {
			t.Fatalf("seed %d: lost requests: %d+%d != %d", seed, res.Completed, res.Dropped, res.Total)
		}
		if res.EnergyMJ <= 0 || math.IsNaN(res.EnergyMJ) {
			t.Fatalf("seed %d: energy %v", seed, res.EnergyMJ)
		}
		if res.Utilization < 0 || res.Utilization > 1 {
			t.Fatalf("seed %d: utilization %v", seed, res.Utilization)
		}
		for _, r := range wl.Requests {
			if r.Done && math.Abs(float64(r.WorkDone-r.WorkTotal)) > 1e-6 {
				t.Fatalf("seed %d: request %d work not conserved", seed, r.ID)
			}
			if r.Done && r.FinishMs < r.ArrivalMs {
				t.Fatalf("seed %d: request %d finished before arriving", seed, r.ID)
			}
		}
	}
}
