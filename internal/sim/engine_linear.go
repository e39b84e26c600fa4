package sim

import "math"

// Reference linear-scan engine (the unexported Config.linear). This is the
// original event loop: every nextEvent scans the full planned-change and
// timer lists, clamping past-due timestamps to the clock per scan. It exists
// so the heap engine's behavior stays machine-checked against a simple,
// obviously-correct implementation (TestEnginesEquivalent,
// FuzzEngineEquivalence assert byte-identical results, decision traces, and
// spans); nothing outside tests and benchmarks should select it.
//
// One historical wart is fixed here rather than preserved: dispatch used to
// remove the chosen event with an O(n) splice (append(s[:i], s[i+1:]...)),
// and the same-instant tie-break leaned on slice position surviving those
// splices. Events now carry their insertion seq and the scan tie-breaks on
// (timestamp, kind, seq) explicitly, which makes O(1) swap-remove legal:
// physical order no longer matters. The dispatch order is unchanged —
// relative slice positions under splice removal equal insertion order.

func (s *Sim) loopLinear() {
	for {
		kind, at, idx := s.nextEventLinear()
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
				// Sampled before the clock moves, as in the heap loop.
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
			r := s.wl.Requests[s.nextArr]
			r.slot = int32(s.nextArr)
			s.nextArr++
			s.arrive(r)
		case evTimer:
			s.syncHead()
			s.pol.OnTimer(s, tm.tag)
		}
	}
}

// nextEventLinear picks the earliest pending event by scanning every list;
// ties break by the priority completion < planned < ceiling < arrival <
// timer, then by insertion seq within a kind. Ceiling steps come from the
// core's schedule cursor, as in nextEvent.
func (s *Sim) nextEventLinear() (kind int, at float64, idx int) {
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
	if s.nextArr < len(s.wl.Requests) {
		t := s.wl.Requests[s.nextArr].ArrivalMs
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
	// Timers beyond the workload horizon with nothing left to do would spin
	// the loop forever in policies that always re-arm (Pegasus): stop once
	// all requests have been served and the horizon is passed.
	if kind == evTimer && s.nextArr >= len(s.wl.Requests) && s.qlen() == 0 && at > s.wl.DurationMs {
		return evNone, 0, -1
	}
	return kind, at, idx
}
