package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"gemini/internal/cpu"
)

// empty reports whether q holds no event.
func empty(q *eventQueue) bool {
	_, _, ok := q.peek()
	return !ok
}

// drain pops every event and returns them in dispatch order.
func drain(q *eventQueue) []qevent {
	var out []qevent
	for !empty(q) {
		out = append(out, q.pop())
	}
	return out
}

func TestEventQueueOrdersByAtKindSeq(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q eventQueue
	// Quantized timestamps force heavy (at) ties; kinds and seq must break
	// them: planned before timer at the same instant, insertion order within
	// a kind.
	for i := 0; i < 500; i++ {
		at := float64(rng.Intn(40))
		if rng.Intn(2) == 0 {
			q.pushPlanned(at, cpu.Freq(i))
		} else {
			q.pushTimer(at, int64(i))
		}
	}
	got := drain(&q)
	if len(got) != 500 {
		t.Fatalf("drained %d events, want 500", len(got))
	}
	want := append([]qevent(nil), got...)
	sort.SliceStable(want, func(i, j int) bool { return qless(&want[i], &want[j]) })
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("dispatch order diverges at %d: got {at=%v kind=%d seq=%d}, want {at=%v kind=%d seq=%d}",
				i, got[i].at, got[i].kind, got[i].seq, want[i].at, want[i].kind, want[i].seq)
		}
	}
}

func TestEventQueueInterleavedPushPop(t *testing.T) {
	// Pops interleaved with pushes must deliver non-decreasing timestamps
	// as long as inserts never land before the clock (the engine clamps
	// them). Kind/seq may step "backwards" at one instant when a new event
	// is inserted at the current clock — that is the same-instant dispatch
	// semantics, not a violation.
	var q eventQueue
	rng := rand.New(rand.NewSource(7))
	clock := 0.0 // engine invariant: inserts are clamped to the clock
	var popped []qevent
	for i := 0; i < 2000; i++ {
		if empty(&q) || rng.Intn(3) > 0 {
			at := clock + float64(rng.Intn(20))
			if rng.Intn(2) == 0 {
				q.pushPlanned(at, cpu.FDefault)
			} else {
				q.pushTimer(at, 1)
			}
		} else {
			e := q.pop()
			if n := len(popped); n > 0 && e.at < popped[n-1].at {
				t.Fatalf("pop %d went back in time: at=%v after at=%v",
					len(popped), e.at, popped[n-1].at)
			}
			popped = append(popped, e)
			clock = e.at
		}
	}
}

func TestEventQueueMatchesBruteForce(t *testing.T) {
	// Property test: every pop must equal the brute-force minimum over a
	// shadow copy of the live events, across many interleaving seeds, so keep
	// it brute-force-simple. Pushes mix in +Inf, 1e18 and NaN timestamps (a
	// NaN must never enter), clearPlanned is interleaved and drops the
	// shadow's planned events, and ops 1000-1400 only push, so the heap is
	// also checked a few hundred events deep before the final drain.
	for seed := int64(1); seed <= 50; seed++ {
		var q eventQueue
		rng := rand.New(rand.NewSource(seed))
		clock := 0.0
		var shadow []qevent // all live events, unordered
		push := func() {
			at := clock + float64(rng.Intn(20))
			switch rng.Intn(40) {
			case 0:
				at = math.Inf(1)
			case 1:
				at = 1e18
			case 2:
				at = math.NaN()
			}
			kind := qkTimer
			if rng.Intn(2) == 0 {
				kind = qkPlanned
				q.pushPlanned(at, cpu.FDefault)
			} else {
				q.pushTimer(at, 1)
			}
			if !math.IsNaN(at) {
				shadow = append(shadow, qevent{at: at, kind: kind, seq: q.seq})
			}
		}
		pop := func(op int) {
			e := q.pop()
			best := 0
			for j := 1; j < len(shadow); j++ {
				if qless(&shadow[j], &shadow[best]) {
					best = j
				}
			}
			if shadow[best].at != e.at || shadow[best].kind != e.kind || shadow[best].seq != e.seq {
				t.Fatalf("seed %d op %d: pop = {at=%v kind=%d seq=%d}, brute-force min = {at=%v kind=%d seq=%d}",
					seed, op, e.at, e.kind, e.seq, shadow[best].at, shadow[best].kind, shadow[best].seq)
			}
			shadow = append(shadow[:best], shadow[best+1:]...)
			if e.at < 1e18 { // a far event popped early must not end the near traffic
				clock = e.at
			}
		}
		peak := 0
		for i := 0; i < 2400; i++ {
			r := rng.Intn(30)
			switch {
			case i >= 1000 && i < 1400:
				push()
			case r == 0:
				q.clearPlanned()
				w := 0
				for _, e := range shadow {
					if e.kind != qkPlanned {
						shadow[w] = e
						w++
					}
				}
				shadow = shadow[:w]
			case empty(&q) || r%3 > 0:
				push()
			default:
				pop(i)
			}
			if len(shadow) > peak {
				peak = len(shadow)
			}
		}
		if peak < 300 {
			t.Fatalf("seed %d: population peaked at %d, the growth phase should pass 300", seed, peak)
		}
		for i := 2400; !empty(&q); i++ {
			pop(i)
		}
		if len(shadow) != 0 {
			t.Fatalf("seed %d: queue drained with %d events left in the shadow", seed, len(shadow))
		}
	}
}

func TestEventQueueRewindOnEarlierInsert(t *testing.T) {
	var q eventQueue
	q.pushTimer(100, 1)
	if at, _, ok := q.peek(); !ok || at != 100 {
		t.Fatalf("peek = %v, %v", at, ok)
	}
	// An insert keyed before the peeked minimum becomes the minimum.
	q.pushPlanned(3, cpu.FDefault)
	if at, kind, ok := q.peek(); !ok || at != 3 || kind != qkPlanned {
		t.Fatalf("after earlier insert: peek = %v kind=%d ok=%v, want 3/planned", at, kind, ok)
	}
	if e := q.pop(); e.at != 3 {
		t.Fatalf("pop = %v, want 3", e.at)
	}
	if e := q.pop(); e.at != 100 {
		t.Fatalf("pop = %v, want 100", e.at)
	}
}

func TestEventQueueClearPlanned(t *testing.T) {
	var q eventQueue
	q.pushPlanned(5, cpu.FDefault)
	q.pushTimer(6, 42)
	q.pushPlanned(7, cpu.FMax)
	q.clearPlanned()
	q.pushPlanned(8, cpu.FMin)
	got := drain(&q)
	if len(got) != 2 {
		t.Fatalf("drained %d events, want 2 (timer + post-clear planned)", len(got))
	}
	if got[0].kind != qkTimer || got[0].tag != 42 {
		t.Fatalf("first = %+v, want the timer", got[0])
	}
	if got[1].kind != qkPlanned || got[1].freq != cpu.FMin {
		t.Fatalf("second = %+v, want the post-clear planned change", got[1])
	}
}

func TestEventQueueClearIsolation(t *testing.T) {
	// Cleared planned events must never resurface, and no timer goes with
	// them.
	var q eventQueue
	rng := rand.New(rand.NewSource(3))
	live := 0
	for i := 0; i < 300; i++ {
		q.pushPlanned(float64(rng.Intn(1000)), cpu.FDefault)
		live++
		if rng.Intn(5) == 0 {
			q.clearPlanned()
			live = 0
		}
		q.pushTimer(float64(rng.Intn(1000)), int64(i))
	}
	got := drain(&q)
	timers, planned := 0, 0
	for _, e := range got {
		if e.kind == qkTimer {
			timers++
		} else {
			planned++
		}
	}
	if timers != 300 {
		t.Fatalf("drained %d timers, want 300", timers)
	}
	if planned != live {
		t.Fatalf("drained %d planned, want %d live after last clear", planned, live)
	}
}

func TestEventQueueFarEvents(t *testing.T) {
	var q eventQueue
	q.pushTimer(math.Inf(1), 9)
	q.pushTimer(1e18, 8)
	q.pushTimer(5, 1)
	q.pushPlanned(math.NaN(), cpu.FMax) // dropped: never dispatches anywhere
	got := drain(&q)
	if len(got) != 3 {
		t.Fatalf("drained %d events, want 3", len(got))
	}
	if got[0].tag != 1 || got[1].tag != 8 || !math.IsInf(got[2].at, 1) {
		t.Fatalf("far ordering wrong: %+v", got)
	}
}

func TestEventQueueSteadyStateAllocFree(t *testing.T) {
	// Push/pop churn at a stable population must not allocate: the heap
	// reuses its slice.
	var q eventQueue
	for i := 0; i < 64; i++ {
		q.pushTimer(float64(i), int64(i))
	}
	clock := 0.0
	allocs := testing.AllocsPerRun(2000, func() {
		e := q.pop()
		clock = e.at
		q.pushTimer(clock+64, e.tag)
	})
	if allocs > 0.01 {
		t.Fatalf("steady-state push/pop allocates %.2f allocs/op, want 0", allocs)
	}
}
