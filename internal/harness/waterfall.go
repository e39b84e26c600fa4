// Waterfall analysis: aggregate the simulator's per-request phase spans into
// per-phase latency/energy tables, attributing where each policy's queries
// spend their time (queue wait vs. initial-frequency execution vs. boost) and
// energy — the offline counterpart of the live /debug/traces endpoint.
package harness

import (
	"fmt"

	"gemini/internal/sim"
	"gemini/internal/stats"
	"gemini/internal/telemetry"
)

// PhaseStats summarizes one span name (phase) across a run's traces.
type PhaseStats struct {
	Name    string  // span name: request, queue, exec-initial, exec-boost
	Count   int     // spans observed
	MeanMs  float64 // mean phase duration
	P95Ms   float64
	P99Ms   float64
	TotalMJ float64 // summed energy_mj attrs (0 for phases without energy)
}

// WaterfallSummary is one (policy, trace) run's phase breakdown.
type WaterfallSummary struct {
	Policy string
	Traces int          // distinct trace IDs observed
	Phases []PhaseStats // first-appearance order
}

// Phase returns the named phase's stats (zero value when absent).
func (w *WaterfallSummary) Phase(name string) PhaseStats {
	for _, p := range w.Phases {
		if p.Name == name {
			return p
		}
	}
	return PhaseStats{}
}

// AnalyzeSpans aggregates a span set into per-phase stats, grouping by span
// name in first-appearance order.
func AnalyzeSpans(policy string, spans []telemetry.Span) *WaterfallSummary {
	ids, _ := telemetry.GroupSpansByTrace(spans)
	sum := &WaterfallSummary{Policy: policy, Traces: len(ids)}
	durs := make(map[string][]float64)
	idx := make(map[string]int)
	for _, sp := range spans {
		i, ok := idx[sp.Name]
		if !ok {
			i = len(sum.Phases)
			idx[sp.Name] = i
			sum.Phases = append(sum.Phases, PhaseStats{Name: sp.Name})
		}
		p := &sum.Phases[i]
		p.Count++
		p.TotalMJ += sp.Attrs.Get(telemetry.AttrEnergyMJ)
		durs[sp.Name] = append(durs[sp.Name], sp.DurationMs())
	}
	for i := range sum.Phases {
		p := &sum.Phases[i]
		vals := durs[p.Name]
		var total float64
		for _, v := range vals {
			total += v
		}
		p.MeanMs = total / float64(len(vals))
		p.P95Ms, _ = stats.Percentile(vals, 95)
		p.P99Ms, _ = stats.Percentile(vals, 99)
	}
	return sum
}

// RunWaterfall runs one (policy, trace) simulation cell with span tracing
// attached and returns the run's Result plus the retained span set. The
// workload and the config are those of the policy's first Fig. 12–14 cell
// (traceWorkload, ConfigFor). The ring
// is sized to hold every request's spans (root + queue + at most two exec
// phases per request).
func (p *Platform) RunWaterfall(policyName, traceName string, avgRPS, durationMs float64) (*sim.Result, []telemetry.Span, error) {
	pol, err := p.NewPolicy(policyName)
	if err != nil {
		return nil, nil, err
	}
	wl := p.traceWorkload(traceName, 0, avgRPS, durationMs)

	cfg := p.ConfigFor(pol.Name())
	sp := telemetry.NewSpanTracer(4 * wl.Len())
	cfg.Spans = sp

	res := sim.Run(cfg, wl, pol)
	return res, sp.Spans(), nil
}

// PhaseReport runs every policy on the same trace and renders the per-phase
// latency/energy waterfall table: where each policy's queries spend their
// time (queue wait, initial-frequency step, boost step) and energy.
func (p *Platform) PhaseReport(traceName string, avgRPS, durationMs float64) (*Report, error) {
	rep := &Report{
		Title:  "Per-phase latency/energy waterfall (" + traceName + " trace)",
		Header: []string{"policy", "phase", "count", "mean ms", "p95 ms", "p99 ms", "energy J"},
	}
	rep.Note("trace=%s avgRPS=%.0f duration=%.0fms shard-fraction=%.2f", traceName, avgRPS, durationMs, p.Opt.ShardFraction)
	rep.Note("phases: queue = enqueue->dispatch, exec-initial = dispatch->boost (planned f*), exec-boost = boost->completion (f_max)")
	for _, name := range PolicyNames {
		res, spans, err := p.RunWaterfall(name, traceName, avgRPS, durationMs)
		if err != nil {
			return nil, err
		}
		sum := AnalyzeSpans(name, spans)
		for _, ph := range sum.Phases {
			energy := ""
			if ph.TotalMJ > 0 {
				energy = fmt.Sprintf("%.2f", ph.TotalMJ/1000)
			}
			rep.AddRow(name, ph.Name, fmt.Sprintf("%d", ph.Count), f2(ph.MeanMs), f2(ph.P95Ms), f2(ph.P99Ms), energy)
		}
		rep.Note("%s: %d traces, completed p99 %.1f ms, energy %.1f J", name, sum.Traces, res.TailLatencyMs(99), res.EnergyMJ/1000)
	}
	return rep, nil
}
