package sim

import (
	"strconv"

	"gemini/internal/cpu"
	"gemini/internal/par"
	"gemini/internal/telemetry"
)

// Telemetry hand-off. A run does not talk to Config.Spans while it executes:
// it appends fixed-size, pointer-free phase records to a log bounded by the
// sink's capacity, and the strings and telemetry.Span values are built once,
// after the run, for the records the sink can still retain. In a cluster run
// a core whose records the later cores are sure to push out of the sink
// writes none and only counts them. Decisions go straight to Config.Tracer,
// except under a sharded cluster run, where each core fills a private slice
// that is replayed in core order afterwards. A cluster run's timeline windows
// stay in each core's capture cursor until the merge reads them.

// spanRec is one phase span of one request in pointer-free form. phase is an
// execution-phase index, or one of the two codes below. a holds the phase's
// attribute values: deadline slack, dropped, violated for the request root;
// frequency and energy for an execution phase; nothing for the queue.
type spanRec struct {
	start, end float64
	a          [3]float64
	req        int // Request.ID
	phase      int32
}

const (
	phaseRequest = -2
	phaseQueue   = -1
)

// spanLog is one run's span records, oldest first: a ring of the last limit
// records once that many were written, everything when limit is 0. A
// count-only log holds no records and only counts them in total.
type spanLog struct {
	policy    string // TraceID prefix
	recs      []spanRec
	limit     int
	next      int // overwrite cursor once len(recs) == limit
	total     uint64
	countOnly bool
}

// push appends one record, overwriting the oldest once the log is full.
//
//gemini:hotpath
func (l *spanLog) push(r spanRec) {
	l.total++
	if l.limit == 0 || len(l.recs) < l.limit {
		l.recs = append(l.recs, r)
		return
	}
	l.recs[l.next] = r
	l.next++
	if l.next == l.limit {
		l.next = 0
	}
}

// appendSpans materialises the log's last keep records onto dst.
func (l *spanLog) appendSpans(dst []telemetry.Span, keep int) []telemetry.Span {
	n := len(l.recs)
	first := l.next // oldest record; 0 until the ring wraps
	lastReq, traceID := 0, ""
	for i := n - keep; i < n; i++ {
		r := &l.recs[(first+i)%n]
		if traceID == "" || r.req != lastReq {
			lastReq, traceID = r.req, l.policy+"/"+strconv.Itoa(r.req)
		}
		sp := telemetry.Span{TraceID: traceID, ParentID: "request", StartMs: r.start, EndMs: r.end}
		switch {
		case r.phase == phaseRequest:
			sp.SpanID, sp.ParentID, sp.Name = "request", "", "request"
			sp.Attrs = sp.Attrs.With(telemetry.AttrDeadlineSlackMs, r.a[0]).
				With(telemetry.AttrDropped, r.a[1]).With(telemetry.AttrViolated, r.a[2])
		case r.phase == phaseQueue:
			sp.SpanID, sp.Name = "queue", "queue"
		default:
			sp.SpanID, sp.Name = "exec-"+strconv.Itoa(int(r.phase)), "exec-boost"
			if r.phase == 0 {
				sp.SpanID, sp.Name = "exec-0", "exec-initial"
			}
			sp.Attrs = sp.Attrs.With(telemetry.AttrFreqGHz, r.a[0]).With(telemetry.AttrEnergyMJ, r.a[1])
		}
		dst = append(dst, sp)
	}
	return dst
}

// capture is what one run holds back from the caller's sinks until it ends.
type capture struct {
	spans spanLog
	// decisions, when non-nil, receives the run's decision records in
	// emission order in place of Config.Tracer.
	decisions []telemetry.Decision
	// timeline, when Config.Series is set, is the run's capture cursor
	// (Timeseries.CaptureRun): the run's windows stay there for the merge
	// instead of reaching the Series.
	timeline *telemetry.SampleCursor
}

// flushSpans hands the runs' span logs to sink, in order, as one emission:
// the records the sink can still retain as Spans, the rest as a count. It
// panics if a count-only log would have kept a record: the logs after it must
// hold at least the sink's capacity.
func flushSpans(sink *telemetry.SpanTracer, caps []capture) {
	limit := sink.Capacity()
	var total uint64
	held := 0
	for c := range caps {
		total += caps[c].spans.total
		held += len(caps[c].spans.recs)
	}
	budget := limit
	if budget == 0 || budget > held {
		budget = held
	}
	// The last `budget` records of the concatenation: skip whole logs, then
	// the head of the first one that still contributes.
	tail := make([]telemetry.Span, 0, budget)
	skip, after := held-budget, held
	for c := range caps {
		l := &caps[c].spans
		n := len(l.recs)
		after -= n
		if l.countOnly && after < limit {
			panic("sim: a count-only core's spans are within the sink's capacity of the end")
		}
		if skip >= n {
			skip -= n
			continue
		}
		tail = l.appendSpans(tail, n-skip)
		skip = 0
	}
	sink.EmitRun(total-uint64(budget), tail)
}

// runCores simulates part(c) under mk(c) for every core on `workers` OS
// threads and hands the telemetry to cfg's sinks in core order, so that what
// they hold does not depend on workers. sizes[c] is core c's request count,
// known before any core runs. part runs inside core c's job, so a caller that
// builds a core's requests there builds them in parallel; it may write only
// to core c's own state.
//
// Each sink gets only what it keeps. Spans are flushed once for the whole
// cluster; every request emits at least a root and a queue record, so a core
// followed by cores with capacity/2 requests or more has all its records
// evicted, and only counts them. Decisions are captured per core and
// replayed, each core's as one EmitRun, only when cores run concurrently: a
// serial run emits them live, which is already core order. A Series is
// always captured per core, because its merge is window arithmetic, not
// concatenation; coord, when non-nil, supplies the capped power series for
// that merge.
func runCores(cfg Config, sizes []int, part func(core int) *Workload, workers int, mk func(core int) Policy, coord *PowerCapCoordinator) []*Result {
	if cfg.Power == nil {
		cfg.Power = cpu.DefaultPowerModel()
	}
	cores := len(sizes)
	results := make([]*Result, cores)
	caps := make([]capture, cores)
	if limit := cfg.Spans.Capacity(); limit > 0 {
		after := 0 // requests on the cores after c
		for c := cores - 1; c >= 0; c-- {
			caps[c].spans.countOnly = 2*after >= limit
			after += sizes[c]
		}
	}
	replay := workers > 1 && cfg.Tracer != nil
	par.Run(workers, cores, func(c int) {
		wl := part(c)
		if replay {
			// One decision per request, at completion or drop.
			caps[c].decisions = make([]telemetry.Decision, 0, len(wl.Requests))
		}
		// At most one completion per request.
		caps[c].timeline = cfg.Series.CaptureRun(wl.DurationMs, len(wl.Requests))
		results[c] = run(cfg, wl, mk(c), &caps[c])
	})
	if replay {
		for c := range caps {
			cfg.Tracer.EmitRun(caps[c].decisions) // stamps Seq in serial order
		}
	}
	if cfg.Spans != nil {
		flushSpans(cfg.Spans, caps)
	}
	if cfg.Series != nil {
		mergeTimeseries(cfg.Series, caps, cfg.Power.UncoreW, coord)
	}
	return results
}
