package harness

import (
	"fmt"
	"io"

	"gemini/internal/sim"
	"gemini/internal/telemetry"
)

// LogDecisions runs one policy on one ISN under the named evaluation trace at
// avgRPS (scaled by the shard fraction) for durationMs, with a decision
// tracer attached, streaming every per-request telemetry.Decision to w as one
// JSON line each. The workload and the config are those of the policy's
// first Fig. 12–14 cell (traceWorkload, ConfigFor): the prediction stall is
// charged as paysPredictOverhead says, so Baseline runs without it.
// It returns the run's Result and the tracer (whose Quality() snapshot
// summarizes the predictors' live accuracy over the run).
func (p *Platform) LogDecisions(w io.Writer, policyName, traceName string, avgRPS, durationMs float64) (*sim.Result, *telemetry.Tracer, error) {
	pol, err := p.NewPolicy(policyName)
	if err != nil {
		return nil, nil, err
	}
	wl := p.traceWorkload(traceName, 0, avgRPS, durationMs)
	cfg := p.ConfigFor(pol.Name())
	tracer := telemetry.NewTracer(4096)
	tracer.SetSink(w)
	cfg.Tracer = tracer

	res := sim.Run(cfg, wl, pol)
	if err := tracer.SinkErr(); err != nil {
		return res, tracer, fmt.Errorf("harness: decision log write: %w", err)
	}
	return res, tracer, nil
}
