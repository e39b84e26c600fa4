package sim

import (
	"gemini/internal/cpu"
	"gemini/internal/stats"
)

// Cluster support: the paper's multi-core plan (§V) — "maintain a separate
// queue for each core and have a global broker to distribute the incoming
// requests to each core ... each core will manage its power consumption
// independently by using Gemini's DVFS scheme".
//
// The broker dispatches on least-expected-work: it tracks a virtual finish
// time per core (advanced by each request's base service time at the default
// frequency) and routes every arrival to the core that would start it
// soonest. Each core then runs as an independent single-ISN simulation —
// which is what makes sharded execution exact: cores share nothing at
// simulation time, so RunClusterWorkers can run them on OS threads and merge
// deterministically, byte-identical to the serial core-by-core run.

// ClusterResult aggregates the per-core results of a dispatched run.
type ClusterResult struct {
	PerCore []*Result

	Total      int
	Completed  int
	Dropped    int
	Violations int
	Events     uint64 // dispatched engine events summed over cores
	EnergyMJ   float64
	DurationMs float64
	Latencies  []float64 // merged, sorted
}

// RunClusterWorkers partitions the workload over `cores` queues with the
// broker and simulates each core with its own policy instance from mkPolicy,
// sharded over `workers` OS threads (1 runs serially). Cores are independent
// simulations, so the parallel run is byte-identical to the serial one:
// per-core Results are deterministic functions of their partition,
// aggregation walks cores in index order, and telemetry reaches the caller's
// cfg.Tracer/cfg.Spans in core order whatever the thread count (runCores;
// TestClusterWorkersMatchesSerial asserts this).
//
// mkPolicy is called once per core, possibly concurrently; it must be safe
// for concurrent use and the returned policies must not share mutable state.
func RunClusterWorkers(cfg Config, wl *Workload, cores, workers int, mkPolicy func(core int) Policy) *ClusterResult {
	if cores < 1 {
		cores = 1
	}
	parts := Dispatch(wl, cores)
	sizes := make([]int, cores)
	for c, p := range parts {
		sizes[c] = len(p.Requests)
	}
	results := runCores(cfg, sizes, func(c int) *Workload { return parts[c] }, workers, mkPolicy, nil)

	cr := &ClusterResult{DurationMs: wl.DurationMs, PerCore: results}
	for _, res := range results {
		cr.Total += res.Total
		cr.Completed += res.Completed
		cr.Dropped += res.Dropped
		cr.Violations += res.Violations
		cr.Events += res.Events
		cr.EnergyMJ += res.EnergyMJ
	}
	cr.Latencies = allLatencies(results)
	return cr
}

// allLatencies returns every core's latencies in one sorted slice, nil when
// there are none. Latencies are finite and non-negative, so equal values
// carry equal bits and sorting the concatenation gives the bytes a merge of
// the cores' sorted runs would.
func allLatencies(results []*Result) []float64 {
	n := 0
	for _, res := range results {
		n += len(res.Latencies)
	}
	if n == 0 {
		return nil
	}
	out := make([]float64, 0, n)
	for _, res := range results {
		out = append(out, res.Latencies...)
	}
	stats.SortAscending(out)
	return out
}

// Dispatch splits a workload into per-core workloads using the
// least-expected-work broker. Request objects are shared (not copied); a
// workload must not be dispatched and also run directly.
//
// The broker keeps the cores in a binary min-heap keyed (vFinish, coreIdx):
// the lexicographic minimum is exactly the first minimal index a linear scan
// with strict less-than would pick, and only the root's key changes per
// request, so each dispatch is one O(log cores) sift-down instead of an
// O(cores) scan (TestDispatchHeapMatchesLinear checks the equivalence).
//
// The broker pass records only each request's core; the per-core Requests are
// then carved, exact-size and in arrival order, from one backing array.
func Dispatch(wl *Workload, cores int) []*Workload {
	// hv/hc form the heap: hv is the virtual finish time, hc the core index.
	// The initial layout (all zeros, cores in index order) is already a valid
	// heap: equal keys tie-break on hc, and parent indices precede children.
	hv := make([]float64, cores)
	hc := make([]int, cores)
	for c := range hc {
		hc[c] = c
	}
	coreOf := make([]int32, len(wl.Requests))
	counts := make([]int, cores)
	for i, r := range wl.Requests {
		coreOf[i] = int32(hc[0])
		counts[hc[0]]++
		start := r.ArrivalMs
		if hv[0] > start {
			start = hv[0]
		}
		hv[0] = start + cpu.TimeFor(r.BaseWork, cpu.FDefault)
		brokerSiftDown(hv, hc)
	}

	backing := make([]*Request, len(wl.Requests))
	parts := make([]*Workload, cores)
	off := 0
	for c, n := range counts {
		// The prediction table is indexed by pool entry, so every per-core
		// part shares the parent workload's table directly. The capacity is
		// clipped so an append to one part cannot reach the next.
		parts[c] = &Workload{Requests: backing[off : off : off+n], BudgetMs: wl.BudgetMs, DurationMs: wl.DurationMs, Preds: wl.Preds}
		off += n
	}
	for i, r := range wl.Requests {
		p := parts[coreOf[i]]
		p.Requests = append(p.Requests, r)
	}
	return parts
}

// brokerSiftDown restores the heap property after the root's key grew.
//
//gemini:hotpath
func brokerSiftDown(hv []float64, hc []int) {
	n := len(hv)
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && brokerLess(hv, hc, r, l) {
			m = r
		}
		if !brokerLess(hv, hc, m, i) {
			return
		}
		hv[i], hv[m] = hv[m], hv[i]
		hc[i], hc[m] = hc[m], hc[i]
		i = m
	}
}

// brokerLess orders heap slots by (vFinish, coreIdx).
//
//gemini:hotpath
func brokerLess(hv []float64, hc []int, i, j int) bool {
	//gemini:allow floatcmp -- exact vFinish ties pick the lowest core index, matching the scan broker
	if hv[i] != hv[j] {
		return hv[i] < hv[j]
	}
	return hc[i] < hc[j]
}

// ViolationRate returns the fraction of all requests that missed deadlines.
func (cr *ClusterResult) ViolationRate() float64 {
	if cr.Total == 0 {
		return 0
	}
	return float64(cr.Violations) / float64(cr.Total)
}

// TailLatencyMs returns the p-th percentile latency across all cores.
func (cr *ClusterResult) TailLatencyMs(p float64) float64 {
	if len(cr.Latencies) == 0 {
		return 0
	}
	return stats.PercentileSorted(cr.Latencies, p)
}

// SocketPowerW sums uncore power and every simulated core's average power;
// if fewer cores were simulated than the model's socket has, the remaining
// cores are charged as idle at the lowest frequency.
func (cr *ClusterResult) SocketPowerW(m *cpu.PowerModel) float64 {
	p := m.UncoreW
	for _, res := range cr.PerCore {
		p += res.AvgCorePowW
	}
	for i := len(cr.PerCore); i < m.Cores; i++ {
		p += m.CoreW(cpu.FMin, false)
	}
	return p
}
