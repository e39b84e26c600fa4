// Package telemetry is the observability layer of the reproduction: a
// lock-cheap metrics registry with a Prometheus text-format encoder, and a
// per-query DVFS decision trace (Decision, Ring, Tracer) that captures what
// the Gemini controller predicted, what it planned, and what actually
// happened — the runtime view production DVFS controllers ship and the paper
// only reports in post-hoc aggregates (Figs. 10–14).
//
// The registry's instruments (Counter, Gauge, Histogram) are built on
// atomics so the live ISN serving path never contends on a registry-wide
// lock.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension, e.g. {Name: "shard", Value: "0"}.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// addFloatBits atomically adds v to a float64 stored as uint64 bits.
func addFloatBits(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Counter is a monotonically increasing count. All methods are safe for
// concurrent use and allocation-free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the value by v (v may be negative).
func (g *Gauge) Add(v float64) { addFloatBits(&g.bits, v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefaultLatencyBuckets covers the repo's millisecond latency range: the
// paper's budget is 40 ms, ISN service times average ~10 ms, and aggregator
// round trips sit well under a second. The sub-millisecond bounds exist for
// the phase histograms — queue-wait spans on an unloaded ISN routinely sit
// under 0.5 ms, which a coarser first bucket would collapse to one bin.
var DefaultLatencyBuckets = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 20, 40, 80, 160, 320, 640, 1280}

// Histogram is a streaming cumulative histogram with fixed upper bounds
// (Prometheus "le" semantics: counts[i] observes x <= bounds[i], with an
// implicit +Inf bucket at the end). Observe is atomic per bucket and
// allocation-free.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last is +Inf
	sumBits atomic.Uint64
	count   atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(x float64) {
	i := sort.SearchFloat64s(h.bounds, x) // first bound >= x
	h.counts[i].Add(1)
	addFloatBits(&h.sumBits, x)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// metricKind is the Prometheus exposition type of a family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// child is one labeled instance within a family.
type child struct {
	key    string // labelKey of its labels: the lookup key and the exposition fragment
	metric any    // *Counter | *Gauge | *Histogram
}

// family is one named metric with a fixed type and help string. Name, help
// and kind never change once registered; children only grow, under the
// registry lock, and stay sorted by key.
type family struct {
	name     string
	help     string
	kind     metricKind
	byKey    map[string]*child
	children []*child
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. Registration takes a registry-wide lock; observation
// paths touch only the returned instrument, and a scrape holds the lock only
// while it copies the family list, never while it writes.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelKey renders labels into a canonical map key / exposition fragment.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Name + `="` + escapeLabel(l.Value) + `"`
	}
	return strings.Join(parts, ",")
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// The naming contract. register holds every family to it when the family is
// first registered and panics on a breach; every listener registers its
// families when it is built, so every test that builds one runs the check.
//
//   - Names carry the gemini_ prefix: one namespace on shared scrape endpoints.
//   - Counters end in _total.
//   - A unit is the name's last token (before _total) and is spelled the
//     canonical way: _ms, _us, _ns, _watts, _mj, _bytes, _ghz, _pct.
//   - Help is not empty: # HELP is the only documentation a scrape consumer
//     sees.
//   - A family holds at most maxChildren label sets. Label values come from
//     bounded sets (shard and replica indices, one listener or build per
//     process), so a family that outgrows the cap is being labeled by traffic.
const (
	metricPrefix = "gemini_"
	maxChildren  = 4096
)

// nonCanonicalUnits maps the unit spellings a name may not end in to the
// canonical one. Some are renames (_msec → _ms); the rest change the scale
// (_seconds → _ms), and the recorded values must be converted with the name.
var nonCanonicalUnits = map[string]string{
	"msec": "ms", "millis": "ms", "milliseconds": "ms", "millisecond": "ms",
	"usec": "us", "micros": "us", "microseconds": "us",
	"nsec": "ns", "nanos": "ns", "nanoseconds": "ns",
	"watt": "watts", "millijoules": "mj",
	"byte": "bytes", "gigahertz": "ghz", "percent": "pct", "percentage": "pct",
	"seconds": "ms", "secs": "ms", "sec": "ms", "s": "ms", "minutes": "ms", "hours": "ms",
	"joules": "mj", "kw": "watts", "mw": "watts",
	"kb": "bytes", "mb": "bytes", "gb": "bytes",
	"mhz": "ghz", "khz": "ghz", "hz": "ghz",
}

// checkName returns the first way a new family breaks the naming contract.
func checkName(name, help string, kind metricKind) error {
	if !strings.HasPrefix(name, metricPrefix) {
		return fmt.Errorf("metric %s lacks the %s namespace prefix", name, metricPrefix)
	}
	if kind == kindCounter && !strings.HasSuffix(name, "_total") {
		return fmt.Errorf("counter %s must end in _total", name)
	}
	base := strings.TrimSuffix(name, "_total")
	unit := base[strings.LastIndexByte(base, '_')+1:]
	if canon, ok := nonCanonicalUnits[unit]; ok {
		return fmt.Errorf("metric %s spells its unit _%s: the canonical suffix is _%s (rescale the values too if the scale differs)", name, unit, canon)
	}
	if strings.TrimSpace(help) == "" {
		return fmt.Errorf("metric %s has an empty help string", name)
	}
	return nil
}

// register returns the existing child or installs one built by mk. A name
// that breaks the naming contract, a name registered twice with different
// kinds, and a family past maxChildren label sets are programming errors.
func (r *Registry) register(name, help string, kind metricKind, labels []Label, mk func() any) any {
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		if err := checkName(name, help, kind); err != nil {
			panic("telemetry: " + err.Error())
		}
		f = &family{name: name, help: help, kind: kind, byKey: make(map[string]*child)}
		r.families[name] = f
		r.order = append(r.order, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, f.kind, kind))
	}
	if c, ok := f.byKey[key]; ok {
		return c.metric
	}
	if len(f.children) == maxChildren {
		panic(fmt.Sprintf("telemetry: metric %s has %d label sets: its label values are not from a bounded set", name, maxChildren))
	}
	c := &child{key: key, metric: mk()}
	f.byKey[key] = c
	i := sort.Search(len(f.children), func(i int) bool { return f.children[i].key >= key })
	f.children = slices.Insert(f.children, i, c)
	return c.metric
}

// Counter registers (or fetches) a counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.register(name, help, kindCounter, labels, func() any { return &Counter{} }).(*Counter)
}

// Gauge registers (or fetches) a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.register(name, help, kindGauge, labels, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram registers (or fetches) a histogram with the given upper bounds
// (DefaultLatencyBuckets when nil).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	return r.register(name, help, kindHistogram, labels, func() any { return newHistogram(bounds) }).(*Histogram)
}

// WritePrometheus renders every family in the text exposition format.
// Families appear in registration order; within a family the labeled
// children render in sorted label-set order. Sorting matters for the
// lazily-created families (ClusterMetrics route counters, the live servers'
// per-shard instruments): their registration order is the first-touch order,
// which concurrent serving makes racy — sorted children keep /metrics
// byte-stable for the same metric state no matter which shard routed first.
//
// The registry lock is held only to copy the family list: w may be a slow
// client's connection, and registration must not wait on it.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.snapshot() {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		for _, c := range f.children {
			if err := writeChild(w, f.name, c); err != nil {
				return err
			}
		}
	}
	return nil
}

// snapshot copies each family with the children it has now. Nothing else
// needs the lock: names, help and kinds never change, and the instruments
// are atomics.
func (r *Registry) snapshot() []family {
	r.mu.Lock()
	defer r.mu.Unlock()
	fs := make([]family, len(r.order))
	for i, f := range r.order {
		fs[i] = family{name: f.name, help: f.help, kind: f.kind, children: slices.Clone(f.children)}
	}
	return fs
}

// joinLabels merges a child's label fragment with extra rendered pairs.
func joinLabels(base string, extra ...string) string {
	parts := make([]string, 0, 1+len(extra))
	if base != "" {
		parts = append(parts, base)
	}
	parts = append(parts, extra...)
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func fmtFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func writeChild(w io.Writer, name string, c *child) error {
	base := c.key
	switch m := c.metric.(type) {
	case *Counter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, joinLabels(base), m.Value())
		return err
	case *Gauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, joinLabels(base), fmtFloat(m.Value()))
		return err
	case *Histogram:
		cum := uint64(0)
		for i, b := range m.bounds {
			cum += m.counts[i].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, joinLabels(base, `le="`+fmtFloat(b)+`"`), cum); err != nil {
				return err
			}
		}
		cum += m.counts[len(m.bounds)].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, joinLabels(base, `le="+Inf"`), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, joinLabels(base), fmtFloat(m.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, joinLabels(base), m.Count())
		return err
	}
	return fmt.Errorf("telemetry: unknown metric type %T", c.metric)
}
