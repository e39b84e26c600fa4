package sim

import (
	"math"

	"gemini/internal/cpu"
)

// The event loop. Five kinds of event drive a core: the executing request's
// completion (derived from the head), planned frequency changes and policy
// timers (the planned and timers lists), and ceiling steps and arrivals
// (cursors over the core's ceiling schedule and the workload). nextEvent scans
// them all on every dispatch.
//
// Ordering contract: events dispatch in ascending (timestamp, kind, seq)
// order. kind is the same-instant priority, completion < planned < ceiling <
// arrival < timer, and seq the insertion index within a kind, so timers armed
// with tags 3, 1, 2 at one instant fire 3, 1, 2. A planned change or timer
// whose time has passed dispatches at the current time, never behind the
// clock. An event at a NaN time never dispatches (every comparison with it is
// false), nor does one at +Inf: the run ends when nothing else is pending.
// TestDispatchOrder holds each of these.
//
// The scan is the engine because the lists stay tiny: a core has at most a
// planned step, a policy timer and the sampler's timer pending
// (TestEventPopulationStaysSmall holds the bound, DESIGN.md §9 has the
// measurements). Dispatch swap-removes the chosen event in O(1); the explicit
// seq keeps the order independent of slice position. A run that arms nothing
// allocates nothing here.

const (
	evCompletion = iota
	evPlanned
	evCeiling
	evArrival
	evTimer
	evNone
)

// plannedChange and timerEvent are the pending policy-scheduled events. seq
// is the insertion index, the same-instant tie-break within a kind.
type plannedChange struct {
	at   float64
	freq cpu.Freq
	seq  uint64
}

type timerEvent struct {
	at  float64
	tag int64
	seq uint64
}

func (s *Sim) loop() {
	for {
		kind, at, idx := s.nextEvent()
		if kind == evNone {
			return
		}
		s.res.Events++
		var tm timerEvent
		if kind == evTimer {
			tm = s.timers[idx]
			last := len(s.timers) - 1
			s.timers[idx] = s.timers[last]
			s.timers = s.timers[:last]
			if tm.tag == SampleTimerTag {
				// Sampled before the clock moves.
				s.sampleTick(at)
				continue
			}
		}
		s.advanceTo(at)
		switch kind {
		case evCompletion:
			s.completeHead()
		case evPlanned:
			pc := s.planned[idx]
			last := len(s.planned) - 1
			s.planned[idx] = s.planned[last]
			s.planned = s.planned[:last]
			s.SetFreq(pc.freq)
		case evCeiling:
			s.stepCeiling()
		case evArrival:
			r := &s.reqs[s.nextArr]
			s.nextArr++
			s.arrive(r)
		case evTimer:
			s.syncHead()
			s.pol.OnTimer(s, tm.tag)
		}
	}
}

// nextEvent picks the earliest pending event and, for a planned change or a
// timer, its index in its list. Ties break by kind, so departures free the
// server before a simultaneous arrival is observed and an arrival at a
// control boundary plans against the ceiling now in force; within a kind
// they break by seq. Past-due planned changes and timers are clamped to the
// clock on every scan.
func (s *Sim) nextEvent() (kind int, at float64, idx int) {
	kind, at, idx = evNone, math.Inf(1), -1
	var seq uint64

	if c := s.completionTime(); c < at {
		kind, at = evCompletion, c
	}
	for i := range s.planned {
		pc := &s.planned[i]
		t := math.Max(pc.at, s.now)
		// Exact timestamp ties are the common same-instant case; broken by (kind, seq).
		if t < at || (t == at && (kind > evPlanned || (kind == evPlanned && pc.seq < seq))) {
			kind, at, idx, seq = evPlanned, t, i, pc.seq
		}
	}
	if s.nextCeil < len(s.ceil) {
		if t := s.ceil[s.nextCeil].AtMs; t < at || (t == at && kind > evCeiling) {
			kind, at, idx = evCeiling, t, -1
		}
	}
	if s.nextArr < len(s.reqs) {
		t := s.reqs[s.nextArr].ArrivalMs
		// Exact timestamp ties are the common same-instant case; broken by event-kind priority.
		if t < at || (t == at && kind > evArrival) {
			kind, at, idx = evArrival, t, -1
		}
	}
	for i := range s.timers {
		tm := &s.timers[i]
		t := math.Max(tm.at, s.now)
		if t < at || (t == at && (kind > evTimer || (kind == evTimer && tm.seq < seq))) {
			kind, at, idx, seq = evTimer, t, i, tm.seq
		}
	}
	// Nothing is due at +Inf, so the run ends there. Timers beyond the
	// workload horizon with nothing left to do would spin the loop forever in
	// policies that always re-arm (Pegasus): stop once all requests have been
	// served and the horizon is passed.
	if math.IsInf(at, 1) || (kind == evTimer && s.nextArr >= len(s.reqs) && s.qlen() == 0 && at > s.wl.DurationMs) {
		return evNone, 0, -1
	}
	return kind, at, idx
}
