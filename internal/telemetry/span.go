package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"sync"
)

// Span is one named phase of a traced query's lifetime: a [StartMs, EndMs)
// window on the trace's timeline plus numeric attributes (frequency, energy,
// deadline slack, shard IDs). Spans sharing a TraceID form one query's
// waterfall; ParentID links a phase to its enclosing span so the tree can be
// re-assembled after stitching (the aggregator nests ISN spans under its
// per-shard fan-out spans, the simulator nests phase spans under the request
// root).
//
// Times are milliseconds on the emitter's own clock: the simulator uses
// simulated time, the live servers use wall time relative to the trace's
// origin (the aggregator rebases each shard's spans onto its own timeline
// when stitching, see server.Aggregator).
type Span struct {
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	Name     string `json:"name"`

	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`

	// Attrs carries the phase's numeric attributes (freq_ghz, energy_mj,
	// deadline_slack_ms, shard, ...), inline: building a span allocates
	// nothing. The zero value is "no attributes" and is left off the wire.
	Attrs Attrs `json:"attrs"`
}

// DurationMs returns the span's length.
func (s Span) DurationMs() float64 { return s.EndMs - s.StartMs }

// Attr returns the attribute with the given wire name (0 when absent or
// unknown).
func (s Span) Attr(name string) float64 { return s.Attrs.Get(attrKey(name)) }

// MarshalJSON writes the span as its fields in declaration order, "attrs"
// left out when there are none — what `omitempty` did while Attrs was a map.
func (s Span) MarshalJSON() ([]byte, error) {
	type plain Span // the fields without this method
	w := struct {
		plain
		Attrs *Attrs `json:"attrs,omitempty"`
	}{plain: plain(s)}
	if s.Attrs.n > 0 {
		w.Attrs = &s.Attrs
	}
	return json.Marshal(w)
}

// AttrKey names one numeric span attribute. The constants are declared in
// the alphabetical order of their wire names, which is the order
// encoding/json gave the former map's keys: Attrs keeps its entries sorted
// by key, so it marshals to the same bytes and equal sets compare equal.
type AttrKey uint8

const (
	AttrDeadlineSlackMs AttrKey = iota + 1
	AttrDropped
	AttrEnergyMJ
	AttrFreqGHz
	AttrGapMs
	AttrQueueDepth
	AttrResults
	AttrServiceMs
	AttrShard
	AttrShardsAsked
	AttrShardsResponded
	AttrStragglers
	AttrViolated
	numAttrKeys
)

var attrNames = [numAttrKeys]string{
	AttrDeadlineSlackMs: "deadline_slack_ms",
	AttrDropped:         "dropped",
	AttrEnergyMJ:        "energy_mj",
	AttrFreqGHz:         "freq_ghz",
	AttrGapMs:           "gap_ms",
	AttrQueueDepth:      "queue_depth",
	AttrResults:         "results",
	AttrServiceMs:       "service_ms",
	AttrShard:           "shard",
	AttrShardsAsked:     "shards_asked",
	AttrShardsResponded: "shards_responded",
	AttrStragglers:      "stragglers",
	AttrViolated:        "violated",
}

// attrKey returns the key with the given wire name, 0 when there is none.
func attrKey(name string) AttrKey {
	for k := AttrKey(1); k < numAttrKeys; k++ {
		if attrNames[k] == name {
			return k
		}
	}
	return 0
}

// MaxAttrs is the most attributes one span carries.
const MaxAttrs = 4

// Attrs is a span's attribute set: up to MaxAttrs (key, value) pairs held
// inline and sorted by key. On the wire it is a JSON object of numbers, keys
// in name order.
type Attrs struct {
	n    uint8
	keys [MaxAttrs]AttrKey
	vals [MaxAttrs]float64
}

// With returns a with k set to v. It panics when a would exceed MaxAttrs:
// span builders name their attributes in code, so that is a bug there.
func (a Attrs) With(k AttrKey, v float64) Attrs {
	i, ok := a.find(k)
	if ok {
		a.vals[i] = v
		return a
	}
	if a.n == MaxAttrs {
		panic("telemetry: span with more than MaxAttrs attributes")
	}
	copy(a.keys[i+1:], a.keys[i:a.n])
	copy(a.vals[i+1:], a.vals[i:a.n])
	a.keys[i], a.vals[i] = k, v
	a.n++
	return a
}

// Get returns k's value (0 when absent).
func (a Attrs) Get(k AttrKey) float64 {
	if i, ok := a.find(k); ok {
		return a.vals[i]
	}
	return 0
}

// find returns k's position in the sorted keys, or where it would go.
func (a *Attrs) find(k AttrKey) (i int, ok bool) {
	for i < int(a.n) && a.keys[i] < k {
		i++
	}
	return i, i < int(a.n) && a.keys[i] == k
}

// MarshalJSON writes the attributes as one JSON object, keys in name order.
func (a Attrs) MarshalJSON() ([]byte, error) {
	b := []byte{'{'}
	for i := 0; i < int(a.n); i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, attrNames[a.keys[i]]...)
		b = append(b, '"', ':')
		v, err := json.Marshal(a.vals[i]) // encoding/json's float format; rejects NaN/Inf as the map did
		if err != nil {
			return nil, err
		}
		b = append(b, v...)
	}
	return append(b, '}'), nil
}

// UnmarshalJSON reads a JSON object of numbers (or null). Names this build
// does not know are dropped, as unknown struct fields are; more than MaxAttrs
// known names is an error, so a span from outside the process stays bounded.
func (a *Attrs) UnmarshalJSON(data []byte) error {
	*a = Attrs{}
	dec := json.NewDecoder(bytes.NewReader(data))
	open, err := dec.Token()
	if err != nil || open == nil {
		return err
	}
	if open != json.Delim('{') {
		return errors.New("telemetry: span attrs is not a JSON object")
	}
	for dec.More() {
		name, err := dec.Token() // an object key: always a string
		if err != nil {
			return err
		}
		var v float64
		if err := dec.Decode(&v); err != nil {
			return err
		}
		k := attrKey(name.(string))
		if k == 0 {
			continue
		}
		if _, ok := a.find(k); !ok && a.n == MaxAttrs {
			return errors.New("telemetry: span with more than MaxAttrs attributes")
		}
		*a = a.With(k, v)
	}
	_, err = dec.Token()
	return err
}

// SpanTracer is the span sink handed to the simulator (sim.Config.Spans) or
// a live server: emitted spans are retained in a bounded ring, oldest
// evicted first.
//
// A nil *SpanTracer is valid everywhere and means "tracing disabled"; all
// methods are nil-safe, so emitters hold exactly one pointer test on the hot
// path and the disabled path allocates nothing (see
// TestNilSpanTracerAllocFree and sim's TestSpansDisabledAddsNoAllocsPerRequest).
type SpanTracer struct {
	mu  sync.Mutex
	buf ring[Span]
}

// NewSpanTracer creates a tracer retaining up to capacity spans (min 1).
func NewSpanTracer(capacity int) *SpanTracer {
	return &SpanTracer{buf: makeRing[Span](capacity)}
}

// Capacity returns the number of spans the tracer retains; a nil tracer
// retains none and reports 0.
func (t *SpanTracer) Capacity() int {
	if t == nil {
		return 0
	}
	return len(t.buf.slots)
}

// Emit records one span. Safe for concurrent use; nil-safe.
func (t *SpanTracer) Emit(sp Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.buf.push(&sp)
	t.mu.Unlock()
}

// EmitBatch records a trace's spans in one critical section, so spans of the
// same trace stay adjacent in the ring even under concurrent emitters.
// Nil-safe; an empty batch is a no-op.
func (t *SpanTracer) EmitBatch(sps []Span) { t.EmitRun(0, sps) }

// EmitRun records a run of evicted+len(tail) spans of which the caller kept
// only the tail, in one critical section. The tail must hold at least the
// run's last Capacity() spans: the dropped ones are then exactly those the
// ring would have evicted, and Total and Snapshot read as if every span had
// been emitted one by one. The simulator flushes its per-run span log
// through this at the end of a run, so it builds Span values only for
// records that can still be retained. Nil-safe.
func (t *SpanTracer) EmitRun(evicted uint64, tail []Span) {
	if t == nil || evicted+uint64(len(tail)) == 0 {
		return
	}
	t.mu.Lock()
	t.buf.total += evicted
	for i := range tail {
		t.buf.push(&tail[i])
	}
	t.mu.Unlock()
}

// Total returns the number of spans ever emitted.
func (t *SpanTracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.buf.total
}

// Snapshot returns up to n of the most recent spans, oldest first (all
// retained spans when n <= 0). Nil-safe (returns nil).
func (t *SpanTracer) Snapshot(n int) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.buf.snapshot(n)
}

// Spans returns every retained span, oldest first.
func (t *SpanTracer) Spans() []Span { return t.Snapshot(0) }

// TraceView is one stitched trace: every retained span sharing a TraceID,
// in emission order, with the trace's overall time window.
type TraceView struct {
	TraceID    string  `json:"trace_id"`
	StartMs    float64 `json:"start_ms"`
	EndMs      float64 `json:"end_ms"`
	DurationMs float64 `json:"duration_ms"`
	Spans      []Span  `json:"spans"`
}

// Traces groups the retained spans by TraceID (ordered by each trace's first
// retained span) and returns the most recent maxTraces of them (all when
// maxTraces <= 0). Traces whose early spans were already evicted from the
// ring appear truncated — the bound is on spans, not traces. Nil-safe.
func (t *SpanTracer) Traces(maxTraces int) []TraceView {
	spans := t.Snapshot(0)
	if len(spans) == 0 {
		return nil
	}
	idx := make(map[string]int, 16)
	var views []TraceView
	for _, sp := range spans {
		i, ok := idx[sp.TraceID]
		if !ok {
			i = len(views)
			idx[sp.TraceID] = i
			views = append(views, TraceView{TraceID: sp.TraceID, StartMs: sp.StartMs, EndMs: sp.EndMs})
		}
		v := &views[i]
		if sp.StartMs < v.StartMs {
			v.StartMs = sp.StartMs
		}
		if sp.EndMs > v.EndMs {
			v.EndMs = sp.EndMs
		}
		v.Spans = append(v.Spans, sp)
	}
	for i := range views {
		views[i].DurationMs = views[i].EndMs - views[i].StartMs
	}
	if maxTraces > 0 && len(views) > maxTraces {
		views = views[len(views)-maxTraces:]
	}
	return views
}

// GroupSpansByTrace buckets spans by TraceID preserving within-trace order —
// the offline-analysis helper behind the harness waterfall tables. The
// returned IDs are in first-appearance order.
func GroupSpansByTrace(spans []Span) (ids []string, byTrace map[string][]Span) {
	byTrace = make(map[string][]Span)
	for _, sp := range spans {
		if _, ok := byTrace[sp.TraceID]; !ok {
			ids = append(ids, sp.TraceID)
		}
		byTrace[sp.TraceID] = append(byTrace[sp.TraceID], sp)
	}
	return ids, byTrace
}
