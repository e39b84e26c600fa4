// Fixture for the hotpath analyzer: //gemini:hotpath functions must not
// allocate or call un-annotated helpers, except inside telemetry nil-check
// guarded regions (tracing enabled ⇒ allocations are part of the contract).
package fixture

import (
	"fmt"
	"math"
	"strconv"

	"gemini/internal/telemetry"
)

type engine struct {
	buf []float64
	tr  *telemetry.Tracer
	sp  *telemetry.SpanTracer
}

//gemini:hotpath
func hotAdd(x float64) float64 { return x + 1 }

//gemini:hotpath
func hotCaller(x float64) float64 {
	return hotAdd(x) // fine: callee is annotated
}

func coldHelper(x float64) float64 { return x * 2 }

//gemini:hotpath
func callsCold(x float64) float64 {
	return coldHelper(x) // want `calls un-annotated coldHelper`
}

//gemini:hotpath
func formats(x float64) string {
	return fmt.Sprintf("%v", x) // want `fmt\.Sprintf allocates`
}

//gemini:hotpath
func makesMap() map[string]int {
	return make(map[string]int) // want `make allocates`
}

//gemini:hotpath
func mapLiteral() map[string]int {
	return map[string]int{"a": 1} // want `map literal allocates`
}

//gemini:hotpath
func closes(x float64) func() float64 {
	return func() float64 { return x } // want `closure literal allocates`
}

//gemini:hotpath
func escapes() *engine {
	return &engine{} // want `&composite literal escapes to the heap`
}

//gemini:hotpath
func concats(a, b string) string {
	return a + b // want `string concatenation allocates`
}

//gemini:hotpath
func spawns() {
	go coldHelper(1) // want `go statement spawns a goroutine` `calls un-annotated coldHelper`
}

//gemini:hotpath
func outsideAllowlist(n int) string {
	return strconv.Itoa(n) // want `calls strconv\.Itoa, which is outside the hot-path allowlist`
}

//gemini:hotpath
func mathIsFine(x float64) float64 {
	return math.Max(x, 0)
}

//gemini:hotpath
func (e *engine) push(x float64) {
	e.buf = append(e.buf, x) // fine: amortized append is the queue idiom
}

//gemini:hotpath
func (e *engine) guarded(x float64) {
	if e.tr != nil {
		// Tracing enabled: allocation is the contract, not a violation.
		_ = fmt.Sprintf("%v", x)
	}
}

//gemini:hotpath
func (e *engine) earlyOut(x float64) string {
	if e.sp == nil {
		return ""
	}
	return fmt.Sprintf("%v", x) // fine: only reachable with tracing enabled
}

//gemini:hotpath
func suppressed(n int) string {
	//gemini:allow hotpath -- cold error path, runs at most once per process
	return strconv.Itoa(n)
}

// Event-queue idioms. The engine's queue is a binary heap now and uses only
// append and swaps, but the analyzer must keep accepting the patterns any
// queue on the event path may use (insert with copy-shift, swap-remove
// dispatch, tail pruning) while still flagging a table allocation without an
// explicit allow.

//gemini:hotpath
func (e *engine) insertShift(x float64, at int) {
	// append+copy shift: the queue's sorted-bucket insert. Amortized append
	// and the copy builtin are both allowed.
	e.buf = append(e.buf, 0)
	copy(e.buf[at+1:], e.buf[at:])
	e.buf[at] = x
}

//gemini:hotpath
func (e *engine) swapRemove(i int) {
	// O(1) dispatch removal: physical order is irrelevant once events carry
	// their insertion seq.
	last := len(e.buf) - 1
	e.buf[i] = e.buf[last]
	e.buf = e.buf[:last]
}

//gemini:hotpath
func (e *engine) pruneTail(live func(float64) bool) {
	for len(e.buf) > 0 && !live(e.buf[len(e.buf)-1]) {
		e.buf = e.buf[:len(e.buf)-1]
	}
}

//gemini:hotpath
func rebucket(n int) [][]float64 {
	return make([][]float64, n) // want `make allocates`
}

//gemini:hotpath
func rebucketAllowed(n int) [][]float64 {
	//gemini:allow hotpath -- amortized rebucketing, runs O(1) times per O(n) inserts
	return make([][]float64, n)
}

// Timeseries-sampler idioms: the engine loop touches its *telemetry
// SampleCursor only behind nil checks, so cursor calls (un-annotated,
// internally appending) must pass inside the guard and fail outside it.

type sampler struct {
	tsc    *telemetry.SampleCursor
	window []float64
}

//gemini:hotpath
func (s *sampler) onArrival() {
	if s.tsc != nil {
		s.tsc.OnArrival(1) // fine: nil-check guard exempts the enabled path
	}
}

//gemini:hotpath
func (s *sampler) onCompletion(latMs float64) {
	s.tsc.OnCompletion(latMs) // want `calls un-annotated .*OnCompletion`
}

//gemini:hotpath
func (s *sampler) tickGuarded(nowMs, energyMJ float64, level int) {
	if s.tsc == nil {
		return
	}
	// Early-out guard shape: everything below only runs with sampling on.
	s.tsc.SetLevel(level, nowMs)
	s.tsc.Sample(telemetry.TimeseriesRow{TimeMs: nowMs}, energyMJ)
}

//gemini:hotpath
func (s *sampler) recordWindow(latMs float64) {
	// The window-percentile buffer reuses its backing array across samples
	// (reset via s.window = s.window[:0] at each boundary): amortized append,
	// same contract as the event queue.
	s.window = append(s.window, latMs)
}

//gemini:hotpath
func (s *sampler) resetWindow() {
	s.window = s.window[:0]
}
