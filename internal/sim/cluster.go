package sim

import (
	"sort"

	"gemini/internal/cpu"
	"gemini/internal/par"
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
	results := runCores(cfg, wl, Dispatch(wl, cores), workers, mkPolicy, nil)

	cr := &ClusterResult{DurationMs: wl.DurationMs, PerCore: results}
	for _, res := range results {
		res.Requests = nil
		cr.Total += res.Total
		cr.Completed += res.Completed
		cr.Dropped += res.Dropped
		cr.Violations += res.Violations
		cr.Events += res.Events
		cr.EnergyMJ += res.EnergyMJ
	}
	cr.Latencies = allLatencies(results, workers)
	return cr
}

// allLatencies returns every core's latencies in one sorted slice, nil when
// there are none, sorting on `workers` OS threads. Latencies are finite and
// non-negative, so equal values carry equal bits and every correct sort of
// the concatenation writes the same bytes. The value range is cut into one
// part per worker at splitters sampled from the cores' sorted runs; a part
// gathers its stretch of every run, found by binary search, into its own
// section of the output and sorts it there. Equal values fall into one part,
// so the parts in order are the sorted whole.
func allLatencies(results []*Result, workers int) []float64 {
	n := 0
	for _, res := range results {
		n += len(res.Latencies)
	}
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	parts := max(1, min(workers, n/minMergePart))
	// Splitters: the part quantiles of samples evenly spaced along each run,
	// so a part's share of every run is about its share of the whole.
	var sample []float64
	if parts > 1 {
		const perRun = 64
		sample = make([]float64, 0, perRun*len(results))
		for _, res := range results {
			if l := res.Latencies; len(l) > 0 {
				for k := range perRun {
					sample = append(sample, l[k*len(l)/perRun])
				}
			}
		}
		stats.SortAscending(sample)
	}
	// cut[j*cores+c] is where part j begins in core c's run; part j takes
	// the values in [splitter j, splitter j+1).
	cores := len(results)
	cut := make([]int, (parts+1)*cores)
	start := make([]int, parts+1)
	for j := 1; j <= parts; j++ {
		for c, res := range results {
			l := res.Latencies
			i := len(l)
			if j < parts {
				i = sort.SearchFloat64s(l, sample[j*len(sample)/parts])
			}
			cut[j*cores+c] = i
			start[j] += i
		}
	}
	par.Run(workers, parts, func(j int) {
		dst := out[start[j]:start[j+1]]
		off := 0
		for c, res := range results {
			off += copy(dst[off:], res.Latencies[cut[j*cores+c]:cut[(j+1)*cores+c]])
		}
		stats.SortAscending(dst)
	})
	return out
}

// minMergePart is the fewest latencies worth a part of their own in
// allLatencies: below it the sampling and the hand-off cost more than a
// second thread saves.
const minMergePart = 1 << 14

// Dispatch assigns a workload's requests to cores with the
// least-expected-work broker: the result lists, per core, the indices of the
// requests it serves in arrival order, which is what the core's run
// materializes its records from.
//
// The broker keeps the cores in a binary min-heap keyed (vFinish, coreIdx):
// the lexicographic minimum is exactly the first minimal index a linear scan
// with strict less-than would pick, and only the root's key changes per
// request, so each dispatch is one O(log cores) sift-down instead of an
// O(cores) scan (TestDispatchHeapMatchesLinear checks the equivalence).
//
// The broker pass records only each request's core; the per-core lists are
// then carved, exact-size, from one backing array.
func Dispatch(wl *Workload, cores int) [][]int32 {
	// hv/hc form the heap: hv is the virtual finish time, hc the core index.
	// The initial layout (all zeros, cores in index order) is already a valid
	// heap: equal keys tie-break on hc, and parent indices precede children.
	hv := make([]float64, cores)
	hc := make([]int, cores)
	for c := range hc {
		hc[c] = c
	}
	coreOf := make([]int32, wl.Len())
	counts := make([]int, cores)
	for i, at := range wl.ArrivalMs {
		coreOf[i] = int32(hc[0])
		counts[hc[0]]++
		start := at
		if hv[0] > start {
			start = hv[0]
		}
		hv[0] = start + cpu.TimeFor(wl.Draws[i].Base, cpu.FDefault)
		brokerSiftDown(hv, hc)
	}
	return carveLists(coreOf, 1, counts)
}

// carveLists groups requests by core: owner holds stride cores per request,
// request i's at owner[i*stride:][:stride], and list c holds, in ascending
// order, the counts[c] requests core c is among the owners of. The lists are
// carved, exact-size, from one backing array; counts is used up as the
// lists' cursors.
func carveLists(owner []int32, stride int, counts []int) [][]int32 {
	backing := make([]int32, len(owner))
	lists := make([][]int32, len(counts))
	off := 0
	for c, n := range counts {
		lists[c] = backing[off : off+n : off+n]
		counts[c] = off
		off += n
	}
	for i := 0; i*stride < len(owner); i++ {
		for _, c := range owner[i*stride:][:stride] {
			backing[counts[c]] = int32(i)
			counts[c]++
		}
	}
	return lists
}

// brokerSiftDown restores the heap property after the root's key grew.
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
func brokerLess(hv []float64, hc []int, i, j int) bool {
	// Exact vFinish ties pick the lowest core index, matching the scan broker.
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
