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
// That plan is the one-shard topology under RouterLeastLoaded: the broker
// tracks a virtual finish time per core (advanced by each request's base
// service time at the default frequency) and routes every arrival to the
// core that would start it soonest, first minimal index on ties. Each core
// then runs as an independent single-ISN simulation, so the cluster runs on
// RunTopologyWorkers' threads and merge, byte-identical to the serial run.

// ClusterResult is a one-shard topology's result; with one shard every query
// is one request, so the query-level counts and QueryLatencies are the
// requests'.
type ClusterResult struct {
	TopologyResult
	Total int // requests dispatched (the topology's Queries)
}

// RunClusterWorkers partitions the workload over `cores` queues with the
// broker and simulates each core with its own policy instance from mkPolicy,
// sharded over `workers` OS threads (1 runs serially); the result is
// byte-identical for any worker count (TestClusterWorkersMatchesSerial).
//
// mkPolicy is called once per core, possibly concurrently; it must be safe
// for concurrent use and the returned policies must not share mutable state.
func RunClusterWorkers(cfg Config, wl *Workload, cores, workers int, mkPolicy func(core int) Policy) *ClusterResult {
	tc := TopologyConfig{Sim: cfg, Topology: Topology{Shards: 1, ReplicasPerShard: cores}}
	cr := new(ClusterResult)
	runTopology(&cr.TopologyResult, tc, wl, workers, mkPolicy)
	cr.Total = cr.Queries
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

// Dispatch assigns a workload's requests to cores with the broker — the
// routing pass of RunClusterWorkers: the result lists, per core, the indices
// of the requests it serves in arrival order.
func Dispatch(wl *Workload, cores int) [][]int32 {
	st := newRouteState(Topology{Shards: 1, ReplicasPerShard: cores}, wl.BudgetMs, cpu.DefaultLadder(), 0)
	legs, counts := st.route(wl, RouterLeastLoaded{}, nil)
	return carveLists(legs, 1, counts)
}

// carveLists groups requests by core: owner holds stride cores per request,
// request i's at owner[i*stride:][:stride], and list c holds, in ascending
// order, the counts[c] requests core c is among the owners of. The lists are
// carved, exact-size, from one backing array, and each fills by append up to
// its capacity.
func carveLists(owner []int32, stride int, counts []uint64) [][]int32 {
	backing := make([]int32, len(owner))
	lists := make([][]int32, len(counts))
	off := 0
	for c, n := range counts {
		lists[c] = backing[off : off : off+int(n)]
		off += int(n)
	}
	for i := 0; i*stride < len(owner); i++ {
		for _, c := range owner[i*stride:][:stride] {
			lists[c] = append(lists[c], int32(i))
		}
	}
	return lists
}

// SocketPowerW is ClusterPowerW plus, if fewer cores were simulated than the
// model's socket has, the remaining cores charged as idle at the lowest
// frequency.
func (cr *ClusterResult) SocketPowerW(m *cpu.PowerModel) float64 {
	p := cr.ClusterPowerW(m)
	for i := len(cr.PerCore); i < m.Cores; i++ {
		p += m.CoreW(cpu.FMin, false)
	}
	return p
}
