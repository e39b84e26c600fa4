package harness

import (
	"math"
	"reflect"
	"testing"

	"gemini/internal/policy"
	"gemini/internal/sim"
	"gemini/internal/trace"
)

// Tests of the pool-indexed tables: a request references its pool entry, and
// what NewPlatform computed per entry (jitter bias, the (S*, E*) pair) must be
// what the per-request code it replaced would have computed.

// TestBuildWorkloadMatchesPerRequestJitter replays the workload stream through
// Jitter.MeasuredWork, which evaluates Bias from the features on every call,
// and requires the table-driven builder to have produced the same bits.
func TestBuildWorkloadMatchesPerRequestJitter(t *testing.T) {
	p := plat(t)
	const seed = 9
	tr := trace.GenFixedRPS(100, 20_000, 3)
	wl := p.Workload(tr.Arrivals, 20_000, seed)

	rng := sim.NewPartitionedRNG(seed).Workload()
	biased := 0
	for i, r := range wl.Requests {
		k := rng.Intn(len(p.Pool))
		pq := &p.Pool[k]
		if r.Entry != pq || int(r.PoolIdx) != k {
			t.Fatalf("request %d references entry %d, want pool entry %d", i, r.PoolIdx, k)
		}
		want := p.Jitter.MeasuredWork(pq.BaseWork, pq.Features, rng)
		if math.Float64bits(float64(r.WorkTotal)) != math.Float64bits(float64(want)) {
			t.Fatalf("request %d: WorkTotal %v, per-request jitter gives %v", i, r.WorkTotal, want)
		}
		if pq.Bias != 0 {
			biased++
		}
	}
	if biased == 0 {
		t.Error("no request drew a pool entry with a non-zero bias; the test compared nothing")
	}
}

// TestPoolPredictionsMatchLiveNN: every slot of the platform's table, the
// cache-hit slot included, holds exactly what the two networks return for
// the entry's features, and Lookup finds a request's slot through its entry.
func TestPoolPredictionsMatchLiveNN(t *testing.T) {
	p := plat(t)
	if got, want := len(p.preds.ServiceMs), len(p.Pool)+1; got != want || len(p.preds.ErrMs) != want {
		t.Fatalf("table has %d/%d slots, want %d", got, len(p.preds.ErrMs), want)
	}
	entries := make([]*sim.PreparedQuery, 0, len(p.Pool)+1)
	for i := range p.Pool {
		entries = append(entries, &p.Pool[i])
	}
	entries = append(entries, &p.cacheHit)
	for slot, pq := range entries {
		svc, errMs, ok := p.preds.Lookup(&sim.Request{Entry: pq, PoolIdx: int32(slot)})
		if !ok || svc != p.Classifier.PredictMs(pq.Features) || errMs != p.ErrPred.PredictErrMs(pq.Features) {
			t.Fatalf("slot %d: table (%v, %v, %v), live (%v, %v)", slot, svc, errMs, ok,
				p.Classifier.PredictMs(pq.Features), p.ErrPred.PredictErrMs(pq.Features))
		}
	}
	if _, _, ok := p.preds.Lookup(&sim.Request{PoolIdx: int32(len(entries))}); ok {
		t.Error("Lookup covered a slot past the table")
	}
	if _, _, ok := (*sim.Predictions)(nil).Lookup(&sim.Request{}); ok {
		t.Error("nil table covered a request")
	}
}

// TestPlatformWorkloadAllocsIndependentOfRequests is the one-second check on
// the ledger's allocs_per_op for the workload build: the same count at n and
// 4n arrivals, and not above the 8 of the commit that still allocated a
// prediction table per workload.
func TestPlatformWorkloadAllocsIndependentOfRequests(t *testing.T) {
	p := plat(t)
	count := func(durationMs float64) float64 {
		tr := trace.GenFixedRPS(100, durationMs, 3)
		return testing.AllocsPerRun(5, func() { p.Workload(tr.Arrivals, durationMs, 5) })
	}
	if small, large := count(10_000), count(40_000); small <= 0 || large != small || small > 8 {
		t.Errorf("%.0f allocs at n and %.0f at 4n arrivals, want equal and <= 8", small, large)
	}
}

// TestCachedPredictionsMatchLiveOnCacheHits is the hit-entry half of
// sim_test.TestCachedPredictionsMatchLive: the cache extension's Gemini cell,
// whose hits read the table's last slot, equals the same cell with the
// networks run per arrival, for any worker count.
func TestCachedPredictionsMatchLiveOnCacheHits(t *testing.T) {
	p := plat(t)
	const rps, durationMs, cacheSize = 80, 6_000, 256
	run := func(pol sim.Policy) *sim.Result {
		tr := trace.GenFixedRPS(rps*p.Opt.ShardFraction, durationMs, p.Opt.Seed+70)
		wl := p.Workload(tr.Arrivals, durationMs, p.Opt.Seed+71)
		if p.applyCache(wl, cacheSize) == 0 {
			t.Fatal("no cache hits; the hit entry was not exercised")
		}
		return sim.Run(p.SimConfig(), wl, pol)
	}
	live := run(policy.NewGemini(p.Classifier, p.ErrPred))
	if cached := run(p.MustPolicy("Gemini")); !reflect.DeepEqual(cached, live) {
		t.Fatalf("cached run differs from live:\n got %+v\nwant %+v", cached, live)
	}
	for _, workers := range []int{1, 4} {
		_, data := p.ExtensionCacheWorkers(rps, durationMs, cacheSize, workers)
		cell := data.Cells[3]
		if cell.Variant != "Gemini+cache" || cell.SocketPowerW != live.SocketPowerW(p.Power) ||
			cell.TailMs != live.TailLatencyMs(95) || cell.ViolationPct != live.ViolationRate()*100 ||
			cell.Transitions != live.Transitions {
			t.Errorf("workers=%d: extension cell %+v differs from the live run", workers, cell)
		}
	}
}
