package telemetry

import "strconv"

// Cluster-topology metric families: per-replica routing counters, power-cap
// throttle totals, the coordinator's modeled cluster power, and the query
// (straggler) latency distribution. The topology runner publishes them once
// per run, after its deterministic merge, so scraping them never perturbs a
// simulation; the CI smoke job greps these exact family names from the
// geminisim cell exposition.
const (
	ClusterRouteTotalName     = "gemini_cluster_route_total"
	ClusterCapThrottleName    = "gemini_cluster_cap_throttle_total"
	ClusterModeledPowerWName  = "gemini_cluster_modeled_power_watts"
	ClusterQueryLatencyMsName = "gemini_cluster_query_latency_ms"
)

// ClusterMetrics bundles the cluster-topology families registered on one
// Registry. Route counters are created lazily per (shard, replica) so a
// 100×4 topology does not register 400 children before any query routes.
type ClusterMetrics struct {
	reg       *Registry
	routes    map[[2]int]*Counter
	throttles *Counter
	modeledW  *Gauge
	queryLat  *Histogram
}

// NewClusterMetrics registers the cluster families on reg.
func NewClusterMetrics(reg *Registry) *ClusterMetrics {
	return &ClusterMetrics{
		reg:    reg,
		routes: make(map[[2]int]*Counter),
		throttles: reg.Counter(ClusterCapThrottleName,
			"power-cap coordinator ceiling step-downs applied"),
		modeledW: reg.Gauge(ClusterModeledPowerWName,
			"modeled cluster power at the last control boundary (CMOS model, watts)"),
		queryLat: reg.Histogram(ClusterQueryLatencyMsName,
			"query straggler latency (slowest shard finish - arrival, ms)", nil),
	}
}

// AddRoutes adds n routed shard requests to the (shard, replica) counter.
func (m *ClusterMetrics) AddRoutes(shard, replica int, n uint64) {
	key := [2]int{shard, replica}
	c := m.routes[key]
	if c == nil {
		c = m.reg.Counter(ClusterRouteTotalName,
			"shard requests routed to each replica core",
			L("shard", strconv.Itoa(shard)), L("replica", strconv.Itoa(replica)))
		m.routes[key] = c
	}
	c.Add(n)
}

// AddCapThrottles adds n coordinator ceiling step-downs.
func (m *ClusterMetrics) AddCapThrottles(n uint64) { m.throttles.Add(n) }

// SetModeledPowerW records the modeled cluster wattage.
func (m *ClusterMetrics) SetModeledPowerW(w float64) { m.modeledW.Set(w) }

// ObserveQueryLatency records one query's straggler latency.
func (m *ClusterMetrics) ObserveQueryLatency(ms float64) { m.queryLat.Observe(ms) }
