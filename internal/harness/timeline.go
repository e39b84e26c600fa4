package harness

import (
	"fmt"
	"strings"

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
	for i, req := range res.Requests {
		r.Note("R%d: predicted %.1f ms (E* %+.1f), actual %.1f ms, latency %.1f ms, violated=%v",
			i+1, req.PredictedMs, req.PredErrMs,
			float64(req.WorkTotal)/2.7, req.LatencyMs(), req.Violated())
	}
	r.Note("shape: low first step sized by S*, boost to 2.7 GHz at T when the error slack demands it (eqs. 5, 7)")
	return r
}

// ExtensionAggregate measures the end-to-end partition-aggregate tail the
// paper's introduction motivates: every query is broadcast to nISNs shards
// (independent per-shard service draws), and the search result is gated by
// the slowest shard. ISN-level Gemini must hold the end-to-end tail at the
// budget while saving power on every shard. Each shard's workload serves the
// same arrivals with its own jitter draws and is shared by both policies.
func (p *Platform) ExtensionAggregate(nISNs int, rps, durationMs float64) (*Report, *AblationData) {
	if nISNs < 2 {
		nISNs = 4
	}
	tr := trace.GenFixedRPS(rps*p.Opt.ShardFraction, durationMs, p.Opt.Seed+81)
	names := []string{"Baseline", "Gemini"}
	var g grid
	for shard := range nISNs {
		g.workloads = append(g.workloads, func() *sim.Workload {
			return p.Workload(tr.Arrivals, durationMs, p.Opt.Seed+90+int64(shard))
		})
	}
	for _, name := range names {
		for shard := range nISNs {
			g.cells = append(g.cells, p.cell(name, p.MustPolicy(name), shard, -1))
		}
	}
	_, results := p.runGrid(g)

	data := &AblationData{Name: "aggregate"}
	r := &Report{
		Title:  "Extension — end-to-end aggregate latency over N ISNs (slowest shard gates)",
		Header: []string{"Policy", "ISN p95 (ms)", "Aggregate p95 (ms)", "Aggregate p99", "Power/ISN (W)"},
	}
	for ni, name := range names {
		shards := results[ni*nISNs:][:nISNs]
		var isnTail, corePow float64
		for _, res := range shards {
			isnTail += res.TailLatencyMs(95) / float64(nISNs)
			corePow += res.AvgCorePowW / float64(nISNs)
		}
		// Aggregate latency per request: max over shards that answered.
		var agg []float64
		dropped := false
		for i := range tr.Arrivals {
			worst, answered := 0.0, false
			for _, res := range shards {
				l := res.Requests[i].LatencyMs()
				if res.Requests[i].Dropped || l < 0 {
					dropped = true // the aggregator ignores the shard
					continue
				}
				answered = true
				if l > worst {
					worst = l
				}
			}
			if answered {
				agg = append(agg, worst)
			}
		}
		p95, _ := stats.Percentile(agg, 95)
		p99, _ := stats.Percentile(agg, 99)
		r.AddRow(name, f2(isnTail), f2(p95), f2(p99), f2(corePow))
		data.Cells = append(data.Cells, Cell{Name: name, SocketPowerW: corePow, TailMs: p95})
		if dropped {
			r.Note("%s: some shards dropped infeasible requests (the aggregator ignores stragglers)", name)
		}
	}
	r.Note("the aggregate tail exceeds any single ISN's (max over %d draws) — the paper's", nISNs)
	r.Note(fmt.Sprintf("motivation for per-ISN deadlines: Gemini holds all %d shards near the budget", nISNs))
	return r, data
}
