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
// writes none and only counts them. Decisions follow the same rule: a cluster
// run's cores write every decision's audit tuple and build the full record
// only for the decisions the tracer will retain, and both reach Config.Tracer
// in one EmitRun afterwards. A cluster run's timeline windows stay in each
// core's capture cursor until the merge reads them. The three hand-offs run
// side by side once every core has finished.

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
// records (the sink's capacity) once that many were written. A count-only
// log holds no records and only counts them in total.
type spanLog struct {
	policy    string // TraceID prefix
	recs      []spanRec
	limit     int
	next      int // overwrite cursor once len(recs) == limit
	total     uint64
	countOnly bool
}

// push appends one record, overwriting the oldest once the log is full.
func (l *spanLog) push(r spanRec) {
	l.total++
	if len(l.recs) < l.limit {
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

// decisionLog is one core's share of a cluster run's decisions. Every request
// emits exactly one decision, so each decision's place in the run is fixed
// before any core runs: core c's follow the earlier cores' request counts.
// The core writes decision i's audit tuple to audits[i], and builds the full
// record only if the tracer retains it, into recs[i-first]; both are the
// core's stretch of buffers the whole run shares (placeDecisions).
type decisionLog struct {
	audits []telemetry.Audit
	recs   []telemetry.Decision
	first  int // the first decision built in full; len(audits) for none
	n      int // decisions written so far
}

// capture is what one run holds back from the caller's sinks until it ends.
type capture struct {
	spans spanLog
	// decisions, when its audits are non-nil, receives the run's decisions
	// in place of Config.Tracer.
	decisions decisionLog
	// timeline, when Config.Series is set, is the run's capture cursor
	// (Timeseries.CaptureRun): the run's windows stay there for the merge
	// instead of reaching the Series.
	timeline *telemetry.SampleCursor
	// keepOrder leaves the run's Latencies in completion order, for a
	// caller that reads its latencies from the records instead.
	keepOrder bool
}

// placeDecisions gives each core its stretch of the run's audit tuples and
// of its retained tail: the last tr.Capacity() decisions (every one for a
// tracer with a streaming sink). lists[c] is core c's requests.
func placeDecisions(tr *telemetry.Tracer, caps []capture, lists [][]int32) (audits []telemetry.Audit, tail []telemetry.Decision) {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	keep := tr.Capacity()
	if keep == 0 || keep > total {
		keep = total
	}
	audits = make([]telemetry.Audit, total)
	tail = make([]telemetry.Decision, keep)
	cut, off := total-keep, 0 // decisions before cut are evicted
	for c, reqs := range lists {
		n := len(reqs)
		l := &caps[c].decisions
		l.audits = audits[off : off+n : off+n]
		l.first = min(n, max(0, cut-off))
		if l.first < n {
			l.recs = tail[off+l.first-cut : off+n-cut]
		}
		off += n
	}
	return audits, tail
}

// flushDecisions hands the run's decisions to tr as one EmitRun. It panics if
// a core emitted other than one decision per request, which the places
// placeDecisions gave out assume.
func flushDecisions(tr *telemetry.Tracer, caps []capture, audits []telemetry.Audit, tail []telemetry.Decision) {
	for c := range caps {
		if l := &caps[c].decisions; l.n != len(l.audits) {
			panic("sim: core " + strconv.Itoa(c) + " emitted " + strconv.Itoa(l.n) +
				" decisions for " + strconv.Itoa(len(l.audits)) + " requests")
		}
	}
	tr.EmitRun(audits, tail)
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
	budget := min(limit, held)
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

// runCores simulates, for every core c, the requests of wl that lists[c]
// indexes under mk(c), on `workers` OS threads, and hands the telemetry to
// cfg's sinks in core order, so that what they hold does not depend on
// workers. Each core materializes its own records inside its job, so the
// builds run in parallel and each core's engine walks memory it has just
// written. results[c].Requests holds core c's records afterwards, and
// results[c].Latencies is sorted if sortLatencies is set, else in
// completion order.
//
// Each sink gets only what it keeps. Spans are flushed once for the whole
// cluster; every request emits at least a root and a queue record, so a core
// followed by cores with capacity/2 requests or more has all its records
// evicted, and only counts them. Every request emits exactly one decision,
// so a decision is built in full only if it is among the run's last
// Tracer.Capacity(); the others leave only their audit tuple. A Series is
// always captured per core, because its merge is window arithmetic, not
// concatenation. coord, when non-nil, gives each core its ceiling schedule
// and supplies the capped power series for that merge. The three hand-offs
// write different sinks and read only their own part of each capture, so
// they run as concurrent jobs: the decision fold, the longest, first, then
// the span flush, then the timeline merge in chunks of windows. The merged
// rows are appended in order afterwards.
func runCores(cfg Config, wl *Workload, lists [][]int32, workers int, mk func(core int) Policy, coord *PowerCapCoordinator, sortLatencies bool) []*Result {
	if cfg.Power == nil {
		cfg.Power = cpu.DefaultPowerModel()
	}
	cores := len(lists)
	results := make([]*Result, cores)
	caps := make([]capture, cores)
	for c := range caps {
		caps[c].keepOrder = !sortLatencies
	}
	if limit := cfg.Spans.Capacity(); limit > 0 {
		after := 0 // requests on the cores after c
		for c := cores - 1; c >= 0; c-- {
			caps[c].spans.countOnly = 2*after >= limit
			after += len(lists[c])
		}
	}
	var audits []telemetry.Audit
	var tail []telemetry.Decision
	if cfg.Tracer != nil {
		audits, tail = placeDecisions(cfg.Tracer, caps, lists)
	}
	par.Run(workers, cores, func(c int) {
		// At most one completion per request.
		caps[c].timeline = cfg.Series.CaptureRun(wl.DurationMs, len(lists[c]))
		var ceil []CeilingStep
		if coord != nil {
			ceil = coord.Schedule(c)
		}
		results[c] = run(cfg, wl, lists[c], mk(c), &caps[c], ceil)
	})
	if cfg.Tracer == nil && cfg.Spans == nil && cfg.Series == nil {
		return results
	}
	m := newTimelineMerge(cfg.Series, caps, cfg.Power.UncoreW, coord)
	par.Run(workers, 2+m.chunks(), func(j int) {
		switch {
		case j == 0 && cfg.Tracer != nil:
			flushDecisions(cfg.Tracer, caps, audits, tail)
		case j == 1 && cfg.Spans != nil:
			flushSpans(cfg.Spans, caps)
		case j >= 2:
			m.chunk(j - 2)
		}
	})
	m.appendTo(cfg.Series)
	return results
}
