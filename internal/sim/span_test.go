package sim

import (
	"strings"
	"testing"

	"gemini/internal/cpu"
	"gemini/internal/telemetry"
)

// TestSpansEmittedPerRequest checks the simulator's span shape: every
// request yields exactly one trace (root + queue + execution phases), the
// trace IDs carry the policy name, and a request dropped before dispatch
// emits a queue-only waterfall flagged dropped.
func TestSpansEmittedPerRequest(t *testing.T) {
	wl := traceWorkload(300, 7)
	cfg := DefaultConfig()
	sp := telemetry.NewSpanTracer(8 * len(wl.Requests))
	cfg.Spans = sp

	res := Run(cfg, wl, &FixedPolicy{F: cpu.FDefault})
	ids, byTrace := telemetry.GroupSpansByTrace(sp.Spans())
	if len(ids) != res.Total {
		t.Fatalf("traces = %d, want %d", len(ids), res.Total)
	}
	for _, id := range ids {
		if !strings.HasPrefix(id, "fixed/") {
			t.Fatalf("trace id %q missing policy prefix", id)
		}
		var hasRoot, hasQueue, hasExec, dropped bool
		for _, s := range byTrace[id] {
			switch s.Name {
			case "request":
				hasRoot = true
				dropped = s.Attr("dropped") == 1
			case "queue":
				hasQueue = true
			default:
				hasExec = true
				if f := s.Attr("freq_ghz"); f != float64(cpu.FDefault) {
					t.Errorf("trace %s: exec phase at %.2f GHz, want FDefault", id, f)
				}
			}
		}
		if !hasRoot || !hasQueue {
			t.Errorf("trace %s: root=%v queue=%v", id, hasRoot, hasQueue)
		}
		if dropped && hasExec {
			t.Errorf("trace %s: dropped-before-dispatch request has exec spans", id)
		}
	}
}

// TestSpansDisabledAddsNoAllocsPerRequest is the phase-span counterpart of
// TestTelemetryDisabledAddsNoAllocsPerRequest: with Config.Spans nil the
// simulator's per-request marginal allocation count must not grow — the
// disabled path is one pointer test per lifecycle event.
func TestSpansDisabledAddsNoAllocsPerRequest(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Spans = nil

	const n = 600
	wlA := traceWorkload(n, 11)
	wlB := traceWorkload(2*n, 11)
	reset := resetWorkload
	pol := &FixedPolicy{F: cpu.FDefault}
	allocsA := testing.AllocsPerRun(20, func() { reset(wlA); Run(cfg, wlA, pol) })
	allocsB := testing.AllocsPerRun(20, func() { reset(wlB); Run(cfg, wlB, pol) })
	perReq := (allocsB - allocsA) / float64(n)
	if perReq > 0.05 {
		t.Errorf("span-disabled path allocates %.3f allocs/request (n: %.0f, 2n: %.0f)",
			perReq, allocsA, allocsB)
	}
}
