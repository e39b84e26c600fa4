package sim

import (
	"math"
	"strconv"

	"gemini/internal/cpu"
	"gemini/internal/telemetry"
)

// Policy is the DVFS control surface: the simulator invokes these callbacks
// and the policy responds by calling the Sim's control methods (SetFreq,
// PlanFreqChange, Drop, SetTimer).
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Init is called once at time zero, before any arrival.
	Init(s *Sim)
	// OnArrival fires after the request has been enqueued (and, if the
	// server was idle, before OnStart for the same request).
	OnArrival(s *Sim, r *Request)
	// OnStart fires when a request begins executing at the head of the
	// queue.
	OnStart(s *Sim, r *Request)
	// OnDeparture fires after a request completes and has been dequeued.
	OnDeparture(s *Sim, r *Request)
	// OnTimer fires for timers the policy registered via SetTimer.
	OnTimer(s *Sim, tag int64)
}

// Config parameterizes one simulation run.
type Config struct {
	Ladder  *cpu.Ladder
	Power   *cpu.PowerModel
	TdvfsMs float64
	// PredictOverheadMs, when positive, stalls the core on every arrival to
	// model on-core predictor inference (paper: 79 µs, §IV-B).
	PredictOverheadMs float64
	// RecordFreqTrace keeps every (time, frequency, busy) segment — the
	// executed frequency plan, for Fig. 2/4/5-style timelines and replay
	// verification.
	RecordFreqTrace bool
	// Tracer, when non-nil, receives one telemetry.Decision per request at
	// completion (or drop), as it happens: the predictors' view, the policy's
	// plan (via TracePlan), and the executed outcome including per-request
	// frequency transitions and core energy. A nil Tracer costs one pointer
	// test per lifecycle event and zero allocations
	// (TestTelemetryDisabledAddsNoAllocsPerRequest).
	Tracer *telemetry.Tracer
	// Spans, when non-nil, receives the per-request phase spans forming each
	// request's waterfall: "queue" (enqueue→dispatch), "exec-initial"
	// (dispatch at the planned initial frequency), and one "exec-boost" span
	// per frequency change while the request held the core (the f_max
	// catch-up phase of a two-step plan, or a group replan). Every span
	// carries frequency and energy attributes; the request root span carries
	// deadline slack. Emission is policy-agnostic — Baseline, Pegasus, Rubik
	// and the Gemini variants produce comparable waterfalls. Spans reach the
	// tracer when Run returns, not during it: the run logs compact records
	// and builds Span values only for those the tracer can still retain; the
	// rest are counted, so Total and Snapshot read as if every span had been
	// emitted as it closed. A nil SpanTracer follows the same contract as
	// Tracer: one pointer test per lifecycle event, zero allocations.
	Spans *telemetry.SpanTracer
	// Series, when non-nil, attaches the fixed-interval timeline sampler: a
	// reserved engine timer (SampleTimerTag) fires at every Series interval
	// boundary and records modeled power, frequency residency, queue depth,
	// in-flight count, arrival/completion/drop counts, and windowed latency
	// percentiles into the Timeseries. The Series' residency levels must
	// match the run's ladder. The sampler reads the run without changing it:
	// a tick neither advances the clock nor closes an accrual interval, so
	// every Result field but Events (one more per tick) is bit-identical with
	// and without it (TestObservationDoesNotPerturb). A nil Series follows
	// the Tracer contract: one pointer test per lifecycle event, zero
	// allocations (TestTimeseriesDisabledAddsNoAllocsPerRequest).
	Series *telemetry.Timeseries
}

// DefaultConfig returns the standard testbed configuration.
func DefaultConfig() Config {
	return Config{
		Ladder:  cpu.DefaultLadder(),
		Power:   cpu.DefaultPowerModel(),
		TdvfsMs: cpu.TdvfsMs,
	}
}

// Sim is the event-driven ISN simulator. Policies receive it in callbacks
// and use its control methods; after Run it is discarded.
type Sim struct {
	cfg Config
	pol Policy
	wl  *Workload
	// reqs is the run's own records of its requests, in arrival order
	// (Workload.requests); the run reads wl and never writes it.
	reqs []Request

	now float64
	// freq is the running frequency, min(setpoint, ceiling): setpoint is the
	// policy's last SetFreq or planned change, ceiling the power cap's limit
	// in force (Ladder().Max() on an uncapped core). ceil is the core's
	// immutable ceiling schedule and nextCeil its cursor, read the way
	// arrivals are, so ceiling steps never enter the event lists.
	freq              cpu.Freq
	setpoint, ceiling cpu.Freq
	ceil              []CeilingStep
	nextCeil          int
	stallUntil        float64
	// busyW and idleW are cfg.Power.CoreW(freq, true/false), refreshed at
	// every write of freq from watts, the model's table over cfg.Ladder, so
	// an accrual reads the draw instead of recomputing it.
	busyW, idleW float64
	watts        cpu.Watts

	// queue[qhead:] is the live FIFO; queue[qhead] is executing once
	// Started. Popping advances qhead instead of re-slicing so the backing
	// array's capacity is reused and steady-state operation allocates
	// nothing per request (the telemetry-disabled benchmark guard relies on
	// this).
	queue   []*Request
	qhead   int
	nextArr int // cursor into reqs

	// exec is the executing request (the head once Started, else nil) and
	// execDone/execTotal its progress. The per-event accrual writes these, not
	// the request: accruing into Request.WorkDone read 0.92x on sim_sweep or
	// sim_cell and was never faster (DESIGN.md §9). syncHead stores execDone
	// back before every policy callback.
	exec      *Request
	execDone  cpu.Work
	execTotal cpu.Work

	// planned and timers are the pending policy-scheduled events (engine.go);
	// evSeq is their insertion counter.
	evSeq   uint64
	planned []plannedChange
	timers  []timerEvent

	acc         cpu.EnergyAccumulator
	transitions int

	// Sleep-state extension: while asleep an idle core draws sleepPowerW
	// instead of its C0 idle power, and the next arrival pays sleepWakeMs.
	sleeping    bool
	sleepPowerW float64
	sleepWakeMs float64

	freqTrace []FreqSegment

	// Decision-trace state (nil/zero unless cfg.Tracer is set). pending holds
	// what is known of each request's record before it completes, indexed by
	// Request.slot. The head snapshot marks where the current head
	// request's energy/transition attribution window begins; headSnapped
	// records that an earlier hook (arrival-time planning, post-departure
	// replanning) already opened the window so startHead must not reset it.
	tr          *telemetry.Tracer
	pending     []pendingDecision
	headEnergy0 float64
	headTrans0  int
	headSnapped bool

	// Phase-span state (inert unless cfg.Spans is set). marks records the
	// executing head request's frequency boundaries — one mark per phase
	// start, with the energy meter reading at that instant — and is reused
	// across heads. tracking gates boundary recording to the window between
	// a head's OnStart returning and its completion/drop, so frequency
	// changes made while planning a not-yet-started head don't split phases.
	// Closed phases go to held.spans; the tracer itself is touched only after
	// the run (flushSpans). held lives in the Sim and is copied to the
	// caller's capture at the end, so concurrent cores do not write to
	// neighbouring memory.
	sp       *telemetry.SpanTracer
	marks    []phaseMark
	tracking bool
	held     capture

	// Timeline-sampler cursor (nil unless cfg.Series is set). Every touch in
	// the engine sits under an `if s.tsc != nil` guard, so a run without a
	// sampler pays one pointer test per lifecycle event and allocates nothing
	// for it (TestTimeseriesDisabledAddsNoAllocsPerRequest).
	tsc *telemetry.SampleCursor

	res *Result
}

// pendingDecision is the part of a request's decision record fixed before it
// completes: the arrival-time queue depth, the plan the policy annotated
// through TracePlan, and the frequency execution began at.
type pendingDecision struct {
	queueDepth int
	criticalID int
	initialGHz float64
	boostGHz   float64
	boostAtMs  float64
	startGHz   float64
}

// phaseMark is one phase boundary of the executing request: the moment a
// frequency took effect and the cumulative core energy at that moment.
type phaseMark struct {
	at       float64
	freq     cpu.Freq
	energyMJ float64
}

// Run simulates the workload under the policy and returns the metrics, with
// the run's per-request records on Result.Requests.
func Run(cfg Config, wl *Workload, pol Policy) *Result {
	return run(cfg, wl, nil, pol, nil, nil)
}

// run simulates the requests of wl that idx lists (every request for a nil
// idx) from records it materializes itself, under the ceiling schedule ceil
// (nil: uncapped) with, when cp is non-nil, the hand-off left to the caller:
// the run's span log, and its decisions when cp.decisions has its places, are
// in cp afterwards and cfg.Spans has not been touched; the run samples into
// cp.timeline, never into cfg.Series, and the result's Latencies stay in
// completion order if cp.keepOrder is set.
func run(cfg Config, wl *Workload, idx []int32, pol Policy, cp *capture, ceil []CeilingStep) *Result {
	reqs := wl.requests(idx)
	if cfg.Ladder == nil {
		cfg.Ladder = cpu.DefaultLadder()
	}
	if cfg.Power == nil {
		cfg.Power = cpu.DefaultPowerModel()
	}
	s := &Sim{
		cfg:      cfg,
		pol:      pol,
		wl:       wl,
		reqs:     reqs,
		freq:     cpu.FDefault,
		setpoint: cpu.FDefault,
		ceiling:  cfg.Ladder.Max(),
		ceil:     ceil,
		tr:       cfg.Tracer,
		sp:       cfg.Spans,
		res:      newResult(pol.Name(), reqs),
		watts:    cfg.Power.Watts(cfg.Ladder),
	}
	s.cacheCoreW()
	if cp != nil {
		s.held = *cp
	}
	if l := &s.held.decisions; l.audits != nil && l.first == len(l.audits) {
		// None of this core's decisions is retained: it writes their audit
		// tuples only, and keeps none of the plan, start and attribution
		// state a full record is built from.
		s.tr = nil
	}
	if s.tr != nil {
		s.pending = make([]pendingDecision, len(reqs))
	}
	if s.sp != nil {
		l := &s.held.spans
		l.policy, l.limit = pol.Name(), s.sp.Capacity()
		if !l.countOnly {
			// Two records per request plus one per execution phase; the log
			// grows past the estimate by append, up to the limit.
			l.recs = make([]spanRec, 0, min(4*len(reqs), l.limit))
		}
	}
	if cfg.Series != nil {
		if got, want := cfg.Series.LevelCount(), len(cfg.Ladder.Levels()); got != want {
			panic("sim: Config.Series residency levels (" + strconv.Itoa(got) +
				") do not match the run's ladder (" + strconv.Itoa(want) + ")")
		}
		if cp != nil {
			s.tsc = cp.timeline
		} else {
			s.tsc = cfg.Series.StartRun(wl.DurationMs)
		}
		if s.tsc != nil {
			s.tsc.SetLevel(cfg.Ladder.Index(cpu.FDefault), 0)
			// The workload's latency budget is the SLO deadline: completions
			// past it land in the rows' slo_violations column. Identical per
			// core, so sharded merges stay byte-identical.
			s.tsc.SetSLODeadline(wl.BudgetMs)
			// Armed before pol.Init so a boundary coinciding with a policy
			// timer samples first (lower insertion seq).
			s.setTimer(s.tsc.NextAt(), SampleTimerTag)
		}
	}
	pol.Init(s)
	s.loop()
	s.finish()
	if cp != nil {
		*cp = s.held
	} else if s.sp != nil {
		flushSpans(s.sp, []capture{s.held})
	}
	return s.res
}

// --- control surface used by policies -----------------------------------

// Now returns the current simulation time in ms.
func (s *Sim) Now() float64 { return s.now }

// Freq returns the frequency the core runs at: the last SetFreq or planned
// change, held down to the power cap's ceiling while one is in force.
func (s *Sim) Freq() cpu.Freq { return s.freq }

// Ladder returns the selectable frequency ladder.
func (s *Sim) Ladder() *cpu.Ladder { return s.cfg.Ladder }

// TdvfsMs returns the configured frequency-transition stall.
func (s *Sim) TdvfsMs() float64 { return s.cfg.TdvfsMs }

// BudgetMs returns the workload's latency budget.
func (s *Sim) BudgetMs() float64 { return s.wl.BudgetMs }

// Predictions returns the workload's precomputed prediction table (nil when
// the workload carries none). Policies whose predictors produced the table
// read it instead of re-running inference per arrival.
func (s *Sim) Predictions() *Predictions { return s.wl.Preds }

// Queue returns the live queue; index 0 is the executing request. Callers
// must not mutate it.
func (s *Sim) Queue() []*Request { return s.queue[s.qhead:] }

// qlen is the live queue length.
func (s *Sim) qlen() int { return len(s.queue) - s.qhead }

// head is the live queue's front request; callers must check qlen() > 0.
func (s *Sim) head() *Request { return s.queue[s.qhead] }

// popHead dequeues the front request, recycling the backing array: when the
// queue drains the slice resets to its full capacity, and a long-lived
// non-empty queue compacts once the dead prefix dominates. Either way the
// steady state appends into existing capacity — no per-request allocation.
func (s *Sim) popHead() {
	s.queue[s.qhead] = nil // release the reference
	s.qhead++
	switch {
	case s.qhead == len(s.queue):
		s.queue = s.queue[:0]
		s.qhead = 0
	case s.qhead >= 64 && s.qhead*2 >= len(s.queue):
		n := copy(s.queue, s.queue[s.qhead:])
		clearTail := s.queue[n:]
		for i := range clearTail {
			clearTail[i] = nil
		}
		s.queue = s.queue[:n]
		s.qhead = 0
	}
	s.refreshHead()
}

// refreshHead re-derives exec after any queue-front mutation.
func (s *Sim) refreshHead() {
	s.exec = nil
	if s.qlen() > 0 && s.queue[s.qhead].Started {
		s.setExec(s.queue[s.qhead])
	}
}

// setExec makes r the executing request and loads its progress.
func (s *Sim) setExec(r *Request) {
	s.exec, s.execDone, s.execTotal = r, r.WorkDone, r.WorkTotal
}

// syncHead stores the executing head's accrued work back to its Request.
// Called before every policy callback so policies reading
// Queue()[0].WorkDone (Gemini's binding test, Rubik's residual estimate) see
// the live value.
func (s *Sim) syncHead() {
	if s.exec != nil {
		s.exec.WorkDone = s.execDone
	}
}

// SetFreq makes f the core's setpoint immediately. The core runs at f, or at
// the power cap's ceiling while f is above it, as Linux's scaling_max_freq
// bounds scaling_setspeed without rewriting it: when the ceiling rises the
// core returns to f. A change of the running frequency stalls the core for
// TdvfsMs; a setpoint the ceiling hides costs nothing.
func (s *Sim) SetFreq(f cpu.Freq) {
	s.setpoint = f
	s.resolveFreq()
}

// resolveFreq runs the core at min(setpoint, ceiling). SetFreq, planned
// changes and ceiling steps all switch the running frequency here.
func (s *Sim) resolveFreq() {
	f := min(s.setpoint, s.ceiling)
	if f == s.freq {
		return
	}
	s.freq = f
	s.cacheCoreW()
	s.transitions++
	if s.tsc != nil {
		s.tsc.SetLevel(s.cfg.Ladder.Index(f), s.now)
	}
	until := s.now + s.cfg.TdvfsMs
	if until > s.stallUntil {
		s.stallUntil = until
	}
	if s.tracking {
		s.markPhase()
	}
}

// markPhase closes the executing request's current phase at the present
// moment (span tracing enabled only). Several same-instant switches — clear
// plan, set initial, re-plan at an arrival — collapse into one boundary: the
// phase that matters is the one time actually passes in.
func (s *Sim) markPhase() {
	// Mark timestamps are copied from s.now verbatim, so same-instant coalescing is exact equality.
	if n := len(s.marks); n > 0 && s.marks[n-1].at == s.now {
		s.marks[n-1].freq = s.freq
		return
	}
	s.marks = append(s.marks, phaseMark{at: s.now, freq: s.freq, energyMJ: s.acc.EnergyMJ()})
}

// PlanFreqChange schedules a frequency switch at the given absolute time.
// Past times apply on the next event dispatch.
func (s *Sim) PlanFreqChange(atMs float64, f cpu.Freq) {
	s.evSeq++
	s.planned = append(s.planned, plannedChange{at: atMs, freq: f, seq: s.evSeq})
}

// ClearPlannedChanges cancels all scheduled frequency switches.
func (s *Sim) ClearPlannedChanges() { s.planned = s.planned[:0] }

// SetTimer schedules an OnTimer callback at the given absolute time. Negative
// tags are the engine's own (SampleTimerTag): a policy that arms one would
// have its timer swallowed by the sampler, so SetTimer panics on it.
func (s *Sim) SetTimer(atMs float64, tag int64) {
	if tag < 0 {
		panic("sim: SetTimer: negative timer tags are reserved for the engine")
	}
	s.setTimer(atMs, tag)
}

// setTimer is SetTimer without the reserved-range check, for the engine's
// own timers.
func (s *Sim) setTimer(atMs float64, tag int64) {
	s.evSeq++
	s.timers = append(s.timers, timerEvent{at: atMs, tag: tag, seq: s.evSeq})
}

// Stall blocks the core for the given duration (prediction overhead).
func (s *Sim) Stall(ms float64) {
	if ms <= 0 {
		return
	}
	until := s.now + ms
	if until > s.stallUntil {
		s.stallUntil = until
	}
}

// Sleep puts an idle core into a C-state drawing powerW; the next arrival
// pays wakeMs of stall before any processing (sleep-state extension, §I).
// Ignored while the queue is non-empty.
func (s *Sim) Sleep(powerW, wakeMs float64) {
	if s.qlen() > 0 {
		return
	}
	s.sleeping = true
	s.sleepPowerW = powerW
	s.sleepWakeMs = wakeMs
}

// Drop removes a queued (or executing) request without completing it. The
// paper drops requests that cannot meet their deadline even at the maximum
// frequency (§III-A); the aggregator would discard their late responses
// anyway.
func (s *Sim) Drop(r *Request) {
	for i := s.qhead; i < len(s.queue); i++ {
		if s.queue[i] != r {
			continue
		}
		r.Dropped = true
		r.FinishMs = s.now
		if r == s.exec {
			// Post-mortem consumers see the progress made before the drop.
			r.WorkDone = s.execDone
		}
		wasHead := i == s.qhead
		if wasHead {
			s.popHead()
		} else {
			copy(s.queue[i:], s.queue[i+1:])
			s.queue[len(s.queue)-1] = nil
			s.queue = s.queue[:len(s.queue)-1]
		}
		s.res.recordDrop(r)
		if s.tsc != nil {
			s.tsc.OnDrop()
		}
		if s.decides() {
			s.emitDecision(r)
		}
		if s.sp != nil {
			s.emitSpans(r)
			if wasHead {
				s.tracking = false
			}
		}
		if wasHead && s.qlen() > 0 && !s.head().Started {
			s.startHead()
		}
		return
	}
}

// TraceEnabled reports whether a decision tracer is attached; policies may
// use it to skip building trace-only values.
func (s *Sim) TraceEnabled() bool { return s.tr != nil }

// TracePlan annotates r's pending decision record with the frequency plan
// the policy just chose for it: the initial (eq. 5 / eq. 14) frequency, the
// boost step (zero boost frequency or a non-finite boostAt means
// single-step), and the critical request anchoring a group plan (-1 when the
// request was planned alone). A no-op when tracing is disabled — the hook
// costs policies one call with no allocation.
func (s *Sim) TracePlan(r *Request, initial, boost cpu.Freq, boostAtMs float64, criticalID int) {
	if s.tr == nil {
		return
	}
	d := &s.pending[r.slot]
	d.initialGHz = float64(initial)
	if boost > 0 && !math.IsInf(boostAtMs, 0) && boostAtMs > 0 {
		d.boostGHz = float64(boost)
		d.boostAtMs = boostAtMs
	} else {
		d.boostGHz = 0
		d.boostAtMs = 0
	}
	d.criticalID = criticalID
}

// decides reports whether the run emits decisions: to Config.Tracer, or
// into a cluster run's capture, which for a core none of whose records is
// retained holds only the audit tuples.
func (s *Sim) decides() bool { return s.tr != nil || s.held.decisions.audits != nil }

// emitDecision seals and emits r's decision record (tracing enabled only). In
// a cluster run it writes r's audit tuple to its place, and the full record
// only if the tracer will retain it.
func (s *Sim) emitDecision(r *Request) {
	a := telemetry.Audit{PredictedMs: r.PredictedMs, PredErrMs: r.PredErrMs, Dropped: r.Dropped}
	if r.Done {
		// The S* audit target: the request's true work expressed as service
		// time at the default frequency (what eq. 1 predicts).
		a.ActualMs = cpu.TimeFor(r.WorkTotal, cpu.FDefault)
	}
	l := &s.held.decisions
	if l.audits == nil {
		s.tr.Emit(s.decision(r, &a))
		return
	}
	i := l.n
	l.n++
	l.audits[i] = a
	if i >= l.first {
		l.recs[i-l.first] = s.decision(r, &a)
	}
}

// decision builds r's full decision record around its audit tuple a.
func (s *Sim) decision(r *Request, a *telemetry.Audit) telemetry.Decision {
	p := &s.pending[r.slot]
	d := telemetry.Decision{
		Policy:          s.pol.Name(),
		RequestID:       r.ID,
		ArrivalMs:       r.ArrivalMs,
		PredictedMs:     a.PredictedMs,
		PredErrMs:       a.PredErrMs,
		InitialFreqGHz:  p.initialGHz,
		BoostFreqGHz:    p.boostGHz,
		BoostAtMs:       p.boostAtMs,
		CriticalID:      p.criticalID,
		QueueDepth:      p.queueDepth,
		StartFreqGHz:    p.startGHz,
		FinishMs:        r.FinishMs,
		ActualMs:        a.ActualMs,
		LatencyMs:       r.LatencyMs(),
		DeadlineSlackMs: r.DeadlineMs - r.FinishMs,
		Dropped:         a.Dropped,
		Violated:        r.Violated(),
	}
	if r.Started {
		d.StartMs = r.StartMs
		d.ServiceMs = r.FinishMs - r.StartMs
		d.Transitions = s.transitions - s.headTrans0
		d.EnergyMJ = s.acc.EnergyMJ() - s.headEnergy0
	}
	return d
}

// emitSpans logs r's phase-span waterfall (span tracing enabled only): the
// request root span, the queue-wait span, and — for a request that reached
// the core — one execution span per frequency phase recorded in marks. The
// phase durations partition [ArrivalMs, FinishMs] exactly, and the execution
// phases' energy attributes sum to the energy the decision trace attributes
// to the request (both invariants are asserted by TestPhaseSpansSumToLatency).
// A count-only log (runCores) counts the records and writes none.
func (s *Sim) emitSpans(r *Request) {
	log := &s.held.spans
	phases := 0
	if r.Started && s.tracking {
		phases = len(s.marks)
	}
	if log.countOnly {
		log.total += uint64(2 + phases)
		return
	}
	log.push(spanRec{
		req: r.ID, phase: phaseRequest, start: r.ArrivalMs, end: r.FinishMs,
		a: [3]float64{r.DeadlineMs - r.FinishMs, boolAttr(r.Dropped), boolAttr(r.Violated())},
	})
	queueEnd := r.FinishMs // dropped before dispatch: all time was queue wait
	if r.Started {
		queueEnd = r.StartMs
	}
	log.push(spanRec{req: r.ID, phase: phaseQueue, start: r.ArrivalMs, end: queueEnd})
	endEnergy := s.acc.EnergyMJ()
	for i, m := range s.marks[:phases] {
		phaseEnd, phaseEndEnergy := r.FinishMs, endEnergy
		if i+1 < phases {
			phaseEnd, phaseEndEnergy = s.marks[i+1].at, s.marks[i+1].energyMJ
		}
		log.push(spanRec{
			req: r.ID, phase: int32(i), start: m.at, end: phaseEnd,
			a: [3]float64{float64(m.freq), phaseEndEnergy - m.energyMJ},
		})
	}
}

// boolAttr renders a bool as a span attribute value.
func boolAttr(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// --- engine ---------------------------------------------------------------

// stepCeiling applies the core's next ceiling step; the clock is at its time.
func (s *Sim) stepCeiling() {
	s.ceiling = s.ceil[s.nextCeil].Ceiling
	s.nextCeil++
	s.resolveFreq()
}

// sampleTick seals the timeline window ending at the reserved sampler
// timer's time at and re-arms the timer for the next boundary. The loop
// calls it before advancing the clock, and no policy sees the timer. It
// reads the run without touching it: the clock and the open accrual interval
// stay where they are, and the energy that interval will have drawn by at is
// added to the meter's reading, not committed to it. Nothing can change the
// core's draw before at: the tick is the earliest pending event.
func (s *Sim) sampleTick(at float64) {
	if s.tsc == nil {
		return
	}
	now := telemetry.TimeseriesRow{TimeMs: at, QueueDepth: float64(s.qlen())}
	if s.exec != nil {
		now.InFlight = 1
	}
	s.tsc.Sample(now, s.acc.EnergyMJ()+s.powerW(s.qlen() > 0)*(at-s.now))
	if next := s.tsc.NextAt(); next >= 0 {
		s.setTimer(next, SampleTimerTag)
	}
}

// completionTime returns when the executing request will finish under the
// current frequency and stall state (+Inf if the server is idle).
func (s *Sim) completionTime() float64 {
	if s.exec == nil {
		return math.Inf(1)
	}
	t0 := max(s.now, s.stallUntil)
	return t0 + cpu.TimeFor(s.execTotal-s.execDone, s.freq)
}

// advanceTo moves simulated time forward, accruing head-request progress and
// core energy across the stall boundary.
func (s *Sim) advanceTo(t float64) {
	if t <= s.now {
		s.now = max(s.now, t)
		return
	}
	busy := s.qlen() > 0
	// Segment 1: stalled (no progress).
	segEnd := min(t, max(s.now, s.stallUntil))
	if segEnd > s.now {
		s.accrue(segEnd-s.now, busy)
		s.now = segEnd
	}
	// Segment 2: executing.
	if t > s.now {
		dt := t - s.now
		if busy && s.exec != nil {
			s.execDone += cpu.WorkFor(dt, s.freq)
		}
		s.accrue(dt, busy)
		s.now = t
	}
}

// powerW is the core's draw at the current frequency and activity, or the
// sleep state's draw while an idle core sleeps.
func (s *Sim) powerW(busy bool) float64 {
	switch {
	case busy:
		return s.busyW
	case s.sleeping:
		return s.sleepPowerW
	}
	return s.idleW
}

// cacheCoreW refreshes busyW and idleW after a write of freq.
func (s *Sim) cacheCoreW() {
	s.busyW = s.watts.CoreW(s.freq, true)
	s.idleW = s.watts.CoreW(s.freq, false)
}

// accrue charges dt of energy at the current frequency/activity.
func (s *Sim) accrue(dt float64, busy bool) {
	if s.cfg.RecordFreqTrace && dt > 0 {
		n := len(s.freqTrace)
		// Segment coalescing compares values copied verbatim from s.freq / s.now.
		if n > 0 && s.freqTrace[n-1].Freq == s.freq && s.freqTrace[n-1].Busy == busy && s.freqTrace[n-1].EndMs == s.now {
			s.freqTrace[n-1].EndMs = s.now + dt
		} else {
			s.freqTrace = append(s.freqTrace, FreqSegment{StartMs: s.now, EndMs: s.now + dt, Freq: s.freq, Busy: busy})
		}
	}
	s.acc.AccumulatePower(dt, s.powerW(busy), busy)
}

func (s *Sim) arrive(r *Request) {
	s.queue = append(s.queue, r)
	if s.qlen() == 1 {
		s.refreshHead()
	}
	if s.tsc != nil {
		s.tsc.OnArrival(float64(s.qlen())) // depth includes this request
	}
	if s.tr != nil {
		s.pending[r.slot] = pendingDecision{
			queueDepth: s.qlen(), // including this request
			criticalID: -1,
		}
	}
	if s.sleeping {
		s.Stall(s.sleepWakeMs)
		s.sleeping = false
	}
	s.Stall(s.cfg.PredictOverheadMs)
	// Snapshot before OnArrival: if this request starts immediately, the
	// transitions its arrival-time plan incurs belong to it.
	preEnergy, preTrans := 0.0, 0
	if s.tr != nil {
		preEnergy, preTrans = s.acc.EnergyMJ(), s.transitions
	}
	s.syncHead()
	s.pol.OnArrival(s, r)
	// OnArrival may have dropped the request.
	if s.qlen() > 0 && s.head() == r && !r.Started && !r.Dropped {
		if s.tr != nil {
			s.headEnergy0, s.headTrans0, s.headSnapped = preEnergy, preTrans, true
		}
		s.startHead()
	}
}

func (s *Sim) startHead() {
	head := s.head()
	head.Started = true
	head.StartMs = s.now
	s.setExec(head)
	if s.tr != nil {
		// Snapshot before OnStart so the transitions and energy its plan
		// application incurs are attributed to this request — unless an
		// earlier hook already opened the attribution window.
		if !s.headSnapped {
			s.headEnergy0 = s.acc.EnergyMJ()
			s.headTrans0 = s.transitions
		}
		s.headSnapped = false
	}
	s.pol.OnStart(s, head)
	if s.tr != nil {
		// OnStart may have dropped the head (and emitted its record); the
		// write is then to a slot nothing reads again.
		s.pending[head.slot].startGHz = float64(s.freq)
	}
	if s.sp != nil && !head.Dropped {
		// Open the phase window after OnStart applied its plan: no simulated
		// time passes inside the callback, so the first mark sits exactly at
		// StartMs with the plan's initial frequency, and any SetFreq calls
		// the plan made do not split a zero-length phase (tracking was off).
		s.marks = s.marks[:0]
		s.marks = append(s.marks, phaseMark{at: head.StartMs, freq: s.freq, energyMJ: s.acc.EnergyMJ()})
		s.tracking = true
	}
}

func (s *Sim) completeHead() {
	head := s.head()
	head.Done = true
	head.FinishMs = s.now
	// Clamp the float drift: the request is exactly finished.
	head.WorkDone = head.WorkTotal
	s.popHead()
	s.res.recordCompletion(head)
	if s.tsc != nil {
		s.tsc.OnCompletion(head.FinishMs - head.ArrivalMs)
	}
	if s.sp != nil {
		s.emitSpans(head)
		s.tracking = false
	}
	if s.decides() {
		s.emitDecision(head)
	}
	if s.tr != nil && s.qlen() > 0 {
		// With a successor already queued there is no idle gap: open its
		// attribution window now, so replanning transitions the policy makes
		// in OnDeparture count toward the next head.
		s.headEnergy0, s.headTrans0, s.headSnapped = s.acc.EnergyMJ(), s.transitions, true
	}
	s.pol.OnDeparture(s, head)
	if s.qlen() > 0 && !s.head().Started {
		s.startHead()
	}
}

// finish accrues trailing idle time up to the workload horizon and seals the
// metrics.
func (s *Sim) finish() {
	if s.now < s.wl.DurationMs {
		s.advanceTo(s.wl.DurationMs)
	}
	if s.held.keepOrder {
		s.res.settle(&s.acc, s.transitions, s.wl.DurationMs)
	} else {
		s.res.seal(&s.acc, s.transitions, s.wl.DurationMs)
	}
	s.res.FreqTrace = s.freqTrace
}
