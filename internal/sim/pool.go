package sim

import "gemini/internal/cpu"

// requestPool is the struct-of-arrays repack of the per-request state the
// dispatch loop touches on every event, indexed by the request's position in
// the workload (Request.slot). The loop's per-event reads — the next
// arrival's timestamp (nextEvent) and the executing head's remaining work
// (completionTime, advanceTo) — walk these contiguous arrays instead of
// chasing *Request pointers scattered across the heap.
//
// State read only at request-lifecycle boundaries (deadline, start/finish
// stamps, flags) stays on the Request struct: it is touched once per request,
// not once per event, so repacking it buys nothing. The engine keeps the
// struct's WorkDone mirror current at every policy-callback boundary
// (syncHead) and writes the final values back at completion/drop, so policies
// and post-run consumers observe exactly the fields they always did.
type requestPool struct {
	arrivalMs []float64
	workTotal []cpu.Work
	workDone  []cpu.Work
}

// load (re)initializes the pool from the workload and stamps every request
// with its pool index. Field values are copied verbatim so a workload whose
// lifecycle fields were reset between runs behaves as on a fresh build.
// Once per run, not on the hot path.
func (p *requestPool) load(reqs []*Request) {
	n := len(reqs)
	if cap(p.arrivalMs) < n {
		p.arrivalMs = make([]float64, n)
		p.workTotal = make([]cpu.Work, n)
		p.workDone = make([]cpu.Work, n)
	}
	p.arrivalMs = p.arrivalMs[:n]
	p.workTotal = p.workTotal[:n]
	p.workDone = p.workDone[:n]
	for i, r := range reqs {
		r.slot = int32(i)
		p.arrivalMs[i] = r.ArrivalMs
		p.workTotal[i] = r.WorkTotal
		p.workDone[i] = r.WorkDone
	}
}

// remaining returns the work left for the request at pool index i.
//
//gemini:hotpath
func (p *requestPool) remaining(i int32) cpu.Work {
	return p.workTotal[i] - p.workDone[i]
}
