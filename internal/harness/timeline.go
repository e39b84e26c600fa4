package harness

import (
	"fmt"
	"strings"

	"gemini/internal/par"
	"gemini/internal/sim"
	"gemini/internal/stats"
	"gemini/internal/trace"
)

// Fig2 renders the executed two-step frequency plan for a handful of
// requests — paper Fig. 2's picture, measured: the initial frequency from
// the predicted service time, then the boost to maximum at the computed
// time T. The timeline is drawn as ASCII frequency bars per segment.
func (p *Platform) Fig2(nRequests int) *Report {
	if nRequests <= 0 {
		nRequests = 4
	}
	// Sparse arrivals so each request's plan is visible in isolation.
	arrivals := make([]float64, nRequests)
	for i := range arrivals {
		arrivals[i] = float64(i) * 100
	}
	durationMs := float64(nRequests)*100 + 100
	wl := p.Workload(arrivals, durationMs, p.Opt.Seed+80)

	cfg := p.SimConfig()
	cfg.RecordFreqTrace = true
	res := sim.Run(cfg, wl, p.MustPolicy("Gemini"))

	r := &Report{Title: "Fig. 2 — executed two-step DVFS plans (Gemini, isolated requests)"}
	r.Header = []string{"t0 (ms)", "t1 (ms)", "GHz", "state", "plan"}
	maxBar := 24
	for _, seg := range res.FreqTrace {
		if !seg.Busy && seg.DurationMs() < 1 {
			continue
		}
		state := "idle"
		if seg.Busy {
			state = "busy"
		}
		bar := strings.Repeat("#", int(float64(seg.Freq)/2.7*float64(maxBar)))
		r.AddRow(f2(seg.StartMs), f2(seg.EndMs), f2(float64(seg.Freq)), state, bar)
	}
	for i, req := range wl.Requests {
		r.Note("R%d: predicted %.1f ms (E* %+.1f), actual %.1f ms, latency %.1f ms, violated=%v",
			i+1, req.PredictedMs, req.PredErrMs,
			float64(req.WorkTotal)/2.7, req.LatencyMs(), req.Violated())
	}
	r.Note("shape: low first step sized by S*, boost to 2.7 GHz at T when the error slack demands it (eqs. 5, 7)")
	return r
}

// ExtensionAggregateWorkers measures the end-to-end partition-aggregate tail
// the paper's introduction motivates: every query is broadcast to nISNs
// shards (independent per-shard service draws), and the search result is
// gated by the slowest shard. ISN-level Gemini must hold the end-to-end tail
// at the budget while saving power on every shard. The (policy, shard)
// simulations are fanned across the worker pool; the per-policy aggregation
// walks shards in index order, so results are identical for any worker count.
func (p *Platform) ExtensionAggregateWorkers(nISNs int, rps, durationMs float64, workers int) (*Report, *AblationData) {
	if nISNs < 2 {
		nISNs = 4
	}
	tr := trace.GenFixedRPS(rps*p.Opt.ShardFraction, durationMs, p.Opt.Seed+81)

	// Each ISN serves the same arrivals with its own jitter draws; every
	// (policy, shard) pair is an independent simulation.
	names := []string{"Baseline", "Gemini"}
	type shardSlot struct {
		res  *sim.Result
		lats []float64 // per-request latency, -1 = dropped
	}
	slots := make([]shardSlot, len(names)*nISNs)
	par.Run(workers, len(slots), func(k int) {
		ni, shard := k/nISNs, k%nISNs
		name := names[ni]
		wl := p.Workload(tr.Arrivals, durationMs, p.Opt.Seed+90+int64(shard))
		cfg := p.SimConfig()
		if name == "Baseline" {
			cfg.PredictOverheadMs = 0
		}
		res := sim.Run(cfg, wl, p.MustPolicy(name))
		lats := make([]float64, len(wl.Requests))
		for i, req := range wl.Requests {
			if req.Dropped {
				lats[i] = -1 // excluded below: the aggregator ignored it
			} else {
				lats[i] = req.LatencyMs()
			}
		}
		slots[k] = shardSlot{res: res, lats: lats}
	})

	data := &AblationData{Name: "aggregate"}
	r := &Report{
		Title:  "Extension — end-to-end aggregate latency over N ISNs (slowest shard gates)",
		Header: []string{"Policy", "ISN p95 (ms)", "Aggregate p95 (ms)", "Aggregate p99", "Power/ISN (W)"},
	}
	for ni, name := range names {
		perShard := make([][]float64, 0, nISNs) // per-shard latency per request index
		var isnTail, corePow float64
		var dropped bool
		for shard := 0; shard < nISNs; shard++ {
			slot := slots[ni*nISNs+shard]
			isnTail += slot.res.TailLatencyMs(95) / float64(nISNs)
			corePow += slot.res.AvgCorePowW / float64(nISNs)
			for _, l := range slot.lats {
				if l < 0 {
					dropped = true
					break
				}
			}
			perShard = append(perShard, slot.lats)
		}
		// Aggregate latency per request: max over shards that answered.
		var agg []float64
		for i := range tr.Arrivals {
			worst := 0.0
			answered := false
			for shard := 0; shard < nISNs; shard++ {
				if l := perShard[shard][i]; l >= 0 {
					answered = true
					if l > worst {
						worst = l
					}
				}
			}
			if answered {
				agg = append(agg, worst)
			}
		}
		p95, _ := stats.Percentile(agg, 95)
		p99, _ := stats.Percentile(agg, 99)
		r.AddRow(name, f2(isnTail), f2(p95), f2(p99), f2(corePow))
		data.Cells = append(data.Cells, AblationCell{
			Variant: name, SocketPowerW: corePow, TailMs: p95,
		})
		if dropped {
			r.Note("%s: some shards dropped infeasible requests (the aggregator ignores stragglers)", name)
		}
	}
	r.Note("the aggregate tail exceeds any single ISN's (max over %d draws) — the paper's", nISNs)
	r.Note(fmt.Sprintf("motivation for per-ISN deadlines: Gemini holds all %d shards near the budget", nISNs))
	return r, data
}
