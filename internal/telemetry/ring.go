package telemetry

// ring is the last-N store under the decision Ring, the SpanTracer and the
// Timeseries: a preallocated buffer in which the newest value overwrites the
// oldest. It has no lock of its own; each owner guards it with the mutex that
// covers the rest of the owner's state.
type ring[T any] struct {
	slots []T
	next  int    // slot the next push writes
	n     int    // values retained, at most len(slots)
	total uint64 // values ever pushed, evicted ones included
}

// makeRing creates a ring retaining up to capacity values (min 1).
func makeRing[T any](capacity int) ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return ring[T]{slots: make([]T, capacity)}
}

// push stores *v, evicting the oldest value when the ring is full, and
// returns the slot it wrote.
//
//gemini:hotpath
func (r *ring[T]) push(v *T) int {
	i := r.next
	r.slots[i] = *v
	if r.next++; r.next == len(r.slots) {
		r.next = 0
	}
	if r.n < len(r.slots) {
		r.n++
	}
	r.total++
	return i
}

// grow appends *v to a ring that retains everything (the span accumulator).
// Such a ring is always exactly full, so next stays 0 and snapshot reads it
// in buffer order.
func (r *ring[T]) grow(v *T) {
	r.slots = append(r.slots, *v)
	r.n++
	r.total++
}

// snapshot returns up to n of the most recent values, oldest first (every
// retained value when n <= 0).
func (r *ring[T]) snapshot(n int) []T {
	if n <= 0 || n > r.n {
		n = r.n
	}
	out := make([]T, n)
	oldest := r.next - n
	if oldest < 0 {
		oldest += len(r.slots)
	}
	copied := copy(out, r.slots[oldest:])
	copy(out[copied:], r.slots)
	return out
}
