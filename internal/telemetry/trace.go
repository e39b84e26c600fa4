package telemetry

import (
	"encoding/json"
	"io"
	"sync"

	"gemini/internal/stats"
)

// Decision is one per-query DVFS control record: the predictors' view of the
// request (S*, E*), the plan the policy chose (eq. 5 initial frequency,
// eq. 7/15 boost time, the critical request anchoring a group plan), and the
// executed outcome (actual service time, deadline slack, frequency
// transitions and core energy attributed to the request). The simulator
// fills the lifecycle and outcome fields; policies annotate the plan fields
// through the sim's TracePlan hook.
type Decision struct {
	// Seq is a monotonically increasing emit index, assigned by the Tracer.
	Seq    uint64 `json:"seq"`
	Policy string `json:"policy"`
	// RequestID is the workload request ID (or a live-path sequence number).
	RequestID int     `json:"request_id"`
	ArrivalMs float64 `json:"arrival_ms"`

	// Predictor view (zero for policies that do not predict).
	PredictedMs float64 `json:"predicted_ms"` // S*, at FDefault
	PredErrMs   float64 `json:"pred_err_ms"`  // E*, signed

	// Plan, as chosen at decision time.
	InitialFreqGHz float64 `json:"initial_freq_ghz,omitempty"` // eq. 5 / eq. 14
	BoostFreqGHz   float64 `json:"boost_freq_ghz,omitempty"`   // f_b; 0 = no boost step
	BoostAtMs      float64 `json:"boost_at_ms,omitempty"`      // T (absolute); 0 = no boost step
	CriticalID     int     `json:"critical_id"`                // group anchor; -1 = none
	QueueDepth     int     `json:"queue_depth"`                // incl. this request, at arrival

	// Executed outcome.
	StartFreqGHz    float64 `json:"start_freq_ghz"` // core frequency as execution began
	StartMs         float64 `json:"start_ms"`
	FinishMs        float64 `json:"finish_ms"`
	ServiceMs       float64 `json:"service_ms"`        // wall execution time start→finish
	ActualMs        float64 `json:"actual_ms"`         // true work at FDefault (S* target)
	LatencyMs       float64 `json:"latency_ms"`        // finish − arrival
	DeadlineSlackMs float64 `json:"deadline_slack_ms"` // deadline − finish
	Transitions     int     `json:"freq_transitions"`  // while this request held the core
	EnergyMJ        float64 `json:"energy_mj"`         // core energy while it held the core
	Dropped         bool    `json:"dropped,omitempty"`
	Violated        bool    `json:"violated,omitempty"`
}

// Audit is the part of a Decision the prediction audit reads. A cluster run
// keeps it for every decision and builds the full record only for those the
// ring will retain (Tracer.EmitRun).
type Audit struct {
	PredictedMs, PredErrMs, ActualMs float64
	Dropped                          bool
}

// Audit returns d's audit tuple.
func (d *Decision) Audit() Audit {
	return Audit{PredictedMs: d.PredictedMs, PredErrMs: d.PredErrMs, ActualMs: d.ActualMs, Dropped: d.Dropped}
}

// AbsErrMs returns |actual − predicted| service time at FDefault.
func (a *Audit) AbsErrMs() float64 {
	e := a.ActualMs - a.PredictedMs
	if e < 0 {
		e = -e
	}
	return e
}

// Covered reports whether the budgeted estimate S* + E* bounded the actual
// service time — the property eq. 7's boost time relies on.
func (a *Audit) Covered() bool {
	return a.ActualMs <= a.PredictedMs+a.PredErrMs
}

// Ring is a bounded, concurrency-safe buffer of the most recent decisions; the
// Tracer that owns it is the only writer.
type Ring struct {
	mu  sync.Mutex
	buf ring[Decision]
}

// Total returns the number of decisions ever pushed.
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.total
}

// Snapshot returns up to n of the most recent decisions, oldest first
// (all retained entries when n <= 0).
func (r *Ring) Snapshot(n int) []Decision {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.snapshot(n)
}

// qualityBuckets are the |S* − actual| histogram bounds of the prediction
// quality view, in ms (the paper audits errors at 1–5 ms tolerance, Fig. 7/8).
var qualityBuckets = []float64{0.5, 1, 2, 3, 5, 7.5, 10, 15, 20}

// Quality accumulates the prediction-audit view over emitted decisions: the
// absolute-error distribution of S* versus actual service time and the
// coverage rate of the error bound E* — the live equivalent of the paper's
// Fig. 7/8 offline evaluation. It has no lock of its own: the Tracer that
// owns it folds and snapshots under the tracer's.
type Quality struct {
	absErr  stats.Online
	signed  stats.Online
	res     *stats.Reservoir
	buckets []uint64 // len(qualityBuckets)+1
	covered int
	total   int
}

// NewQuality creates an empty quality accumulator.
func NewQuality() *Quality {
	return &Quality{res: stats.NewReservoir(2048, 1), buckets: make([]uint64, len(qualityBuckets)+1)}
}

// Observe folds one completed, predicted decision's audit tuple into the
// audit. Decisions without a prediction (PredictedMs == 0) or without an
// executed outcome are ignored.
func (q *Quality) Observe(a *Audit) {
	if a.PredictedMs <= 0 || a.ActualMs <= 0 || a.Dropped {
		return
	}
	abs := a.AbsErrMs()
	q.absErr.Add(abs)
	q.signed.Add(a.ActualMs - a.PredictedMs)
	q.res.Add(abs)
	i := 0
	for i < len(qualityBuckets) && abs > qualityBuckets[i] {
		i++
	}
	q.buckets[i]++
	if a.Covered() {
		q.covered++
	}
	q.total++
}

// QualitySnapshot is a point-in-time summary of the prediction audit.
type QualitySnapshot struct {
	N            int     `json:"n"`
	MAEMs        float64 `json:"mae_ms"`
	MeanSignedMs float64 `json:"mean_signed_ms"`
	MaxAbsMs     float64 `json:"max_abs_ms"`
	P50Ms        float64 `json:"p50_ms"`
	P95Ms        float64 `json:"p95_ms"`
	P99Ms        float64 `json:"p99_ms"`
	// CoverageRate is the fraction of requests with actual <= S* + E*.
	CoverageRate float64 `json:"coverage_rate"`
	// BucketBounds/BucketCounts form the abs-error histogram (last bucket
	// is +Inf).
	BucketBounds []float64 `json:"bucket_bounds_ms"`
	BucketCounts []uint64  `json:"bucket_counts"`
}

// Snapshot summarizes the audit so far.
func (q *Quality) Snapshot() QualitySnapshot {
	s := QualitySnapshot{
		N:            q.total,
		MAEMs:        q.absErr.Mean(),
		MeanSignedMs: q.signed.Mean(),
		MaxAbsMs:     q.absErr.Max(),
		BucketBounds: append([]float64(nil), qualityBuckets...),
		BucketCounts: append([]uint64(nil), q.buckets...),
	}
	s.P50Ms, _ = q.res.Percentile(50)
	s.P95Ms, _ = q.res.Percentile(95)
	s.P99Ms, _ = q.res.Percentile(99)
	if q.total > 0 {
		s.CoverageRate = float64(q.covered) / float64(q.total)
	}
	return s
}

// Tracer is the decision sink handed to the simulator (sim.Config.Tracer)
// or a live ISN: every emitted Decision is stamped with a sequence number,
// retained in the bounded ring, folded into the prediction-quality audit,
// and — when a sink is attached — streamed out as one JSON line.
//
// A nil *Tracer is valid everywhere and means "telemetry disabled"; all
// methods are nil-safe, so callers hold exactly one branch on the hot path.
type Tracer struct {
	// ring.mu is the tracer's one lock: it guards the fields below as well,
	// so an Emit is a single critical section and the ring, the audit and the
	// sink all see decisions in Seq order.
	ring    *Ring
	seq     uint64
	quality *Quality
	enc     *json.Encoder
	sinkErr error
}

// NewTracer creates a tracer with a ring of the given capacity (min 1).
func NewTracer(ringCap int) *Tracer {
	return &Tracer{ring: &Ring{buf: makeRing[Decision](ringCap)}, quality: NewQuality()}
}

// SetSink attaches a streaming JSONL writer: every subsequent Emit writes
// one JSON-encoded Decision line. The caller owns flushing/closing.
func (t *Tracer) SetSink(w io.Writer) {
	t.ring.mu.Lock()
	t.enc = json.NewEncoder(w)
	t.ring.mu.Unlock()
}

// Emit records one decision. Safe for concurrent use; nil-safe. Without a
// sink it allocates nothing (TestTracerEmitAllocFree).
func (t *Tracer) Emit(d Decision) {
	if t == nil {
		return
	}
	t.ring.mu.Lock()
	t.seq++
	d.Seq = t.seq
	t.ring.buf.push(&d)
	a := d.Audit()
	t.quality.Observe(&a)
	if t.enc != nil {
		t.writeSink(d)
	}
	t.ring.mu.Unlock()
}

// EmitRun records a run of len(audits) decisions in one critical section, as
// that many calls of Emit would, from what the caller kept of them: audits[i]
// is decision i's audit tuple, and tail holds the run's last len(tail)
// decisions in full. Each decision is stamped with the next Seq and folded
// into the audit in order; the ones in tail are copied into the ring, stamped,
// and streamed to the sink when one is attached. tail must hold at least the
// run's last Capacity() decisions (every one, with a sink attached): the rest
// then count in the ring's total exactly as its evictions would. The
// simulator hands a cluster run's decisions over through this. Neither
// argument is modified. Nil-safe.
func (t *Tracer) EmitRun(audits []Audit, tail []Decision) {
	if t == nil || len(audits) == 0 {
		return
	}
	t.ring.mu.Lock()
	defer t.ring.mu.Unlock()
	need := len(audits)
	if keep := t.capacity(); keep > 0 {
		need = min(keep, need)
	}
	if len(tail) < need || len(tail) > len(audits) {
		panic("telemetry: EmitRun's tail does not cover the decisions the tracer retains")
	}
	for i := range audits {
		t.quality.Observe(&audits[i])
	}
	evicted := len(audits) - len(tail)
	t.ring.buf.total += uint64(evicted)
	t.seq += uint64(evicted)
	skip := len(tail) - len(t.ring.buf.slots) // the tail's own evictions
	for i := range tail {
		t.seq++
		if i < skip {
			t.ring.buf.total++
		} else {
			t.ring.buf.slots[t.ring.buf.push(&tail[i])].Seq = t.seq
		}
		if t.enc != nil {
			cp := tail[i]
			cp.Seq = t.seq
			t.writeSink(cp)
		}
	}
}

// writeSink streams one decision under ring.mu. It takes the decision by
// value so that the copy handed to the encoder is what moves to the heap,
// and only when a sink is attached — Emit's own d stays on the stack.
func (t *Tracer) writeSink(d Decision) {
	if err := t.enc.Encode(&d); err != nil && t.sinkErr == nil {
		t.sinkErr = err
	}
}

// Capacity returns how many of a run's most recent decisions EmitRun needs
// in full: the ring's capacity, or 0 — every one — with a streaming sink
// attached. A nil tracer also reports 0: callers test for nil first.
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	t.ring.mu.Lock()
	defer t.ring.mu.Unlock()
	return t.capacity()
}

// capacity is Capacity under ring.mu.
func (t *Tracer) capacity() int {
	if t.enc != nil {
		return 0
	}
	return len(t.ring.buf.slots)
}

// Ring returns the bounded decision buffer (nil for a nil tracer).
func (t *Tracer) Ring() *Ring {
	if t == nil {
		return nil
	}
	return t.ring
}

// Quality returns the current prediction-audit snapshot.
func (t *Tracer) Quality() QualitySnapshot {
	if t == nil {
		return QualitySnapshot{}
	}
	t.ring.mu.Lock()
	defer t.ring.mu.Unlock()
	return t.quality.Snapshot()
}

// Emitted returns the total number of decisions emitted.
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	t.ring.mu.Lock()
	defer t.ring.mu.Unlock()
	return t.seq
}

// SinkErr returns the first error hit while writing the JSONL sink.
func (t *Tracer) SinkErr() error {
	if t == nil {
		return nil
	}
	t.ring.mu.Lock()
	defer t.ring.mu.Unlock()
	return t.sinkErr
}

// WriteJSONL dumps the ring's retained decisions (oldest first) as JSON
// lines — the offline-analysis export for a tracer with no streaming sink
// attached.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, d := range t.ring.Snapshot(0) {
		if err := enc.Encode(&d); err != nil {
			return err
		}
	}
	return nil
}
