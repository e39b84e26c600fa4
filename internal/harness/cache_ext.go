package harness

import (
	"fmt"

	"gemini/internal/par"
	"gemini/internal/sim"
	"gemini/internal/trace"
)

// ExtensionCacheWorkers measures how an ISN-side result cache (paper ref [22])
// composes with Gemini: cache hits collapse to the engine's fixed lookup
// cost, thinning the effective load the DVFS policy must serve. The Zipf
// query stream makes hits frequent, so both the baseline and Gemini draw
// less power — and Gemini's saving persists on the misses.
//
// The four variant cells are fanned across the worker pool. Each cell
// materializes its own workload from the shared seed (the cached cells then
// rewrite hits), so results are identical for any worker count.
func (p *Platform) ExtensionCacheWorkers(rps, durationMs float64, cacheSize, workers int) (*Report, *AblationData) {
	tr := trace.GenFixedRPS(rps*p.Opt.ShardFraction, durationMs, p.Opt.Seed+70)

	variants := []struct {
		name   string
		policy string
		cached bool
	}{
		{"Baseline", "Baseline", false},
		{"Baseline+cache", "Baseline", true},
		{"Gemini", "Gemini", false},
		{"Gemini+cache", "Gemini", true},
	}
	type cacheSlot struct {
		res     *sim.Result
		hitRate float64
	}
	slots := make([]cacheSlot, len(variants))
	par.Run(workers, len(variants), func(i int) {
		v := variants[i]
		wl := p.Workload(tr.Arrivals, durationMs, p.Opt.Seed+71)
		hitRate := 0.0
		if v.cached {
			hitRate = p.applyCache(wl, cacheSize)
		}
		cfg := p.SimConfig()
		if v.policy == "Baseline" {
			cfg.PredictOverheadMs = 0
		}
		slots[i] = cacheSlot{res: sim.Run(cfg, wl, p.MustPolicy(v.policy)), hitRate: hitRate}
	})

	data := &AblationData{Name: "cache"}
	r := &Report{
		Title:  "Extension — ISN result cache composed with DVFS policies",
		Header: []string{"Variant", "Power (W)", "Saving", "p95 (ms)", "Violations", "Transitions"},
	}
	base := slots[0].res
	for i, variant := range variants {
		res := slots[i].res
		cell := AblationCell{
			Variant:      variant.name,
			SocketPowerW: res.SocketPowerW(p.Power),
			SavingFrac:   res.PowerSavingVs(base, p.Power),
			TailMs:       res.TailLatencyMs(95),
			ViolationPct: res.ViolationRate() * 100,
			Transitions:  res.Transitions,
		}
		data.Cells = append(data.Cells, cell)
		r.AddRow(variant.name, f1(cell.SocketPowerW), pct(cell.SavingFrac),
			f2(cell.TailMs), fmt.Sprintf("%.2f%%", cell.ViolationPct), fmt.Sprintf("%d", cell.Transitions))
		if variant.cached {
			r.Note("%s: cache hit rate %.0f%% (capacity %d, Zipf query stream)", variant.name, slots[i].hitRate*100, cacheSize)
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
