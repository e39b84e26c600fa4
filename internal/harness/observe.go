package harness

import (
	"fmt"
	"io"

	"gemini/internal/sim"
	"gemini/internal/telemetry"
	"gemini/internal/trace"
)

// LogDecisions runs one policy on one ISN under the named evaluation trace at
// avgRPS (scaled by the shard fraction) for durationMs, with a decision
// tracer attached, streaming every per-request telemetry.Decision to w as one
// JSON line each. The trace and workload are seeded Seed+40 and Seed+50, as
// for the first trace of the Fig. 12–14 grid, and every policy pays the
// platform's prediction overhead (the grid waives it for Baseline).
// It returns the run's Result and the tracer (whose Quality() snapshot
// summarizes the predictors' live accuracy over the run).
func (p *Platform) LogDecisions(w io.Writer, policyName, traceName string, avgRPS, durationMs float64) (*sim.Result, *telemetry.Tracer, error) {
	pol, err := p.NewPolicy(policyName)
	if err != nil {
		return nil, nil, err
	}
	tr := trace.GenEvalTrace(traceName, avgRPS*p.Opt.ShardFraction, durationMs, p.Opt.Seed+40)
	wl := p.Workload(tr.Arrivals, durationMs, p.Opt.Seed+50)

	cfg := p.SimConfig()
	tracer := telemetry.NewTracer(4096)
	tracer.SetSink(w)
	cfg.Tracer = tracer

	res := sim.Run(cfg, wl, pol)
	if err := tracer.SinkErr(); err != nil {
		return res, tracer, fmt.Errorf("harness: decision log write: %w", err)
	}
	return res, tracer, nil
}
