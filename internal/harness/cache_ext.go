package harness

import (
	"gemini/internal/sim"
	"gemini/internal/trace"
)

// ExtensionCache measures how an ISN-side result cache (paper ref [22])
// composes with Gemini: cache hits collapse to the engine's fixed lookup
// cost, thinning the effective load the DVFS policy must serve. The Zipf
// query stream makes hits frequent, so both the baseline and Gemini draw
// less power — and Gemini's saving persists on the misses. The cached cells
// run the same workload with its hits rewritten.
func (p *Platform) ExtensionCache(rps, durationMs float64, cacheSize int) (*Report, *AblationData) {
	tr := trace.GenFixedRPS(rps*p.Opt.ShardFraction, durationMs, p.Opt.Seed+70)
	hitRate := 0.0
	g := grid{workloads: []func() *sim.Workload{
		func() *sim.Workload { return p.Workload(tr.Arrivals, durationMs, p.Opt.Seed+71) },
		func() *sim.Workload {
			wl := p.Workload(tr.Arrivals, durationMs, p.Opt.Seed+71)
			hitRate = p.applyCache(wl, cacheSize)
			return wl
		},
	}}
	for _, name := range []string{"Baseline", "Gemini"} {
		g.cells = append(g.cells, p.cell(name, p.MustPolicy(name), 0, 0), p.cell(name+"+cache", p.MustPolicy(name), 1, 0))
	}
	cells, _ := p.runGrid(g)
	data := &AblationData{Name: "cache", Cells: cells}
	r := ablationReport("Extension — ISN result cache composed with DVFS policies", data)
	for _, c := range g.cells {
		if c.wl == 1 {
			r.Note("%s: cache hit rate %.0f%% (capacity %d, Zipf query stream)", c.name, hitRate*100, cacheSize)
		}
	}
	return r, data
}

// applyCache replays the fresh workload's query sequence through an LRU of
// the given capacity and re-points every hit at the platform's cache-hit
// entry, at the cache-lookup cost, returning the hit rate. The request
// sequence matches the uncached run query-for-query (same workload seed), so
// the comparison isolates the cache's effect. The hit entry has its own slot
// in the prediction table, so cached and live prediction paths stay
// bit-identical.
func (p *Platform) applyCache(wl *sim.Workload, capacity int) float64 {
	hits := 0
	seen := newLRUSet(capacity)
	slot := int32(len(p.Pool))
	hit := sim.Draw{Base: p.cachedPool[slot].BaseWork, Work: p.cachedPool[slot].BaseWork, PoolIdx: slot}
	for i := range wl.Draws {
		if seen.touch(p.Pool[wl.Draws[i].PoolIdx].Query.Text) {
			hits++
			wl.Draws[i] = hit
		}
	}
	wl.Pool = p.cachedPool
	if wl.Len() == 0 {
		return 0
	}
	return float64(hits) / float64(wl.Len())
}

// lruSet is a tiny LRU membership set for workload rewriting.
type lruSet struct {
	cap   int
	order []string
	set   map[string]bool
}

func newLRUSet(capacity int) *lruSet {
	return &lruSet{cap: capacity, set: make(map[string]bool, capacity)}
}

// touch reports whether key was present, inserting/refreshing it either way.
func (l *lruSet) touch(key string) bool {
	if l.set[key] {
		for i, k := range l.order {
			if k == key {
				l.order = append(append(append([]string(nil), l.order[:i]...), l.order[i+1:]...), key)
				break
			}
		}
		return true
	}
	l.set[key] = true
	l.order = append(l.order, key)
	if len(l.order) > l.cap {
		evict := l.order[0]
		l.order = l.order[1:]
		delete(l.set, evict)
	}
	return false
}
