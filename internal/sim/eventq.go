package sim

import (
	"math"

	"gemini/internal/cpu"
)

// Event queue for the engine's policy-scheduled events: planned frequency
// changes and timers. The next completion is derived from the executing head
// and the next arrival from the workload cursor, so neither enters the queue.
//
// Ordering contract: events dispatch in ascending (timestamp, kind, seq)
// order. kind is the engine's same-instant priority (evPlanned < evTimer;
// completion and arrival slot in via nextEvent) and seq the insertion index,
// the tie-break the reference linear engine realizes through scan order.
// Timestamps are clamped to the clock at insertion: a past-due event is always
// the minimum, so the clock cannot pass it and the clamped key equals the
// dispatch time the reference engine computes per scan.
//
// Structure: a binary min-heap in one slice, sized to the traffic it serves:
// a core has at most a planned step, a policy timer, the cap coordinator's
// timer and the sampler's timer pending (TestEventPopulationStaysSmall holds
// the bound, DESIGN.md §9 has the measurements). A run that arms nothing
// allocates nothing here.

// Queue event kinds: evPlanned and evTimer, narrow so a qevent packs small.
const (
	qkPlanned uint8 = iota + 1 // == evPlanned
	qkTimer   uint8 = 3        // == evTimer
)

// qevent is one scheduled event: freq for a planned change, tag for a timer.
type qevent struct {
	at   float64
	seq  uint64
	freq cpu.Freq
	tag  int64
	kind uint8
}

// qless orders events by the dispatch key (at, kind, seq). Keys are unique:
// seq increments on every insert.
//
//gemini:hotpath
func qless(a, b *qevent) bool {
	//gemini:allow floatcmp -- exact timestamp ties are the common same-instant case; broken by (kind, seq)
	if a.at != b.at {
		return a.at < b.at
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.seq < b.seq
}

// eventQueue is the heap: h[0] is the minimum and h[i] keys below its
// children h[2i+1] and h[2i+2]. The zero value is an empty queue.
type eventQueue struct {
	h       []qevent
	planned int // planned events in h
	seq     uint64
}

// pushPlanned schedules a frequency change at an already clamped time.
//
//gemini:hotpath
func (q *eventQueue) pushPlanned(at float64, f cpu.Freq) {
	q.push(qevent{at: at, freq: f, kind: qkPlanned})
}

// pushTimer schedules a policy timer. Same contract as pushPlanned.
//
//gemini:hotpath
func (q *eventQueue) pushTimer(at float64, tag int64) {
	q.push(qevent{at: at, tag: tag, kind: qkTimer})
}

// push stamps e with the next insertion index and sifts it up from the end.
// NaN timestamps are dropped: every comparison of the reference engine's scan
// is false for NaN, so such an event never dispatches there either.
//
//gemini:hotpath
func (q *eventQueue) push(e qevent) {
	if math.IsNaN(e.at) {
		return
	}
	if e.kind == qkPlanned {
		q.planned++
	}
	q.seq++
	e.seq = q.seq
	q.h = append(q.h, e)
	h, i := q.h, len(q.h)-1
	for p := (i - 1) / 2; i > 0 && qless(&h[i], &h[p]); i, p = p, (p-1)/2 {
		h[i], h[p] = h[p], h[i]
	}
}

// down sifts h[i] towards the leaves until both children key above it.
//
//gemini:hotpath
func (q *eventQueue) down(i int) {
	h := q.h
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && qless(&h[c+1], &h[c]) {
			c++
		}
		if !qless(&h[c], &h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// clearPlanned cancels every planned event: it filters them out in place and
// rebuilds the heap over the timers, O(n) at a population of three.
//
//gemini:hotpath
func (q *eventQueue) clearPlanned() {
	if q.planned == 0 {
		return
	}
	w := 0
	for i := range q.h {
		if q.h[i].kind != qkPlanned {
			q.h[w] = q.h[i]
			w++
		}
	}
	q.h = q.h[:w]
	q.planned = 0
	for i := w/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

// peek returns the minimum event's dispatch key without removing it.
//
//gemini:hotpath
func (q *eventQueue) peek() (at float64, kind uint8, ok bool) {
	if len(q.h) == 0 {
		return 0, 0, false
	}
	return q.h[0].at, q.h[0].kind, true
}

// pop removes and returns the minimum event.
//
//gemini:hotpath
func (q *eventQueue) pop() qevent {
	last := len(q.h) - 1
	if last < 0 {
		panic("sim: pop from empty event queue")
	}
	e := q.h[0]
	q.h[0] = q.h[last]
	q.h = q.h[:last]
	q.down(0)
	if e.kind == qkPlanned {
		q.planned--
	}
	return e
}
