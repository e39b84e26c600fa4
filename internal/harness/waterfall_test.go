package harness

import (
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"gemini/internal/sim"
	"gemini/internal/telemetry"
	"gemini/internal/trace"
)

// TestPhaseSpansSumToLatency asserts the two span invariants for every
// policy: each traced request's queue + execution phases partition its
// [arrival, finish] window exactly (phase durations sum to the end-to-end
// latency), and the execution phases' energy attributes sum to the energy
// the decision trace attributes to the request.
func TestPhaseSpansSumToLatency(t *testing.T) {
	p := plat(t)
	const avgRPS, durationMs = 400, 3000
	for _, name := range PolicyNames {
		name := name
		t.Run(name, func(t *testing.T) {
			pol, err := p.NewPolicy(name)
			if err != nil {
				t.Fatal(err)
			}
			tr := trace.GenEvalTrace("uniform", avgRPS*p.Opt.ShardFraction, durationMs, p.Opt.Seed+40)
			wl := p.Workload(tr.Arrivals, durationMs, p.Opt.Seed+50)

			cfg := p.SimConfig()
			sp := telemetry.NewSpanTracer(8 * wl.Len())
			dec := telemetry.NewTracer(2 * wl.Len())
			cfg.Spans = sp
			cfg.Tracer = dec

			res := sim.Run(cfg, wl, pol)

			decByID := make(map[int]telemetry.Decision)
			for _, d := range dec.Ring().Snapshot(0) {
				decByID[d.RequestID] = d
			}

			ids, byTrace := telemetry.GroupSpansByTrace(sp.Spans())
			if len(ids) != res.Total {
				t.Fatalf("traces = %d, want one per request (%d)", len(ids), res.Total)
			}
			const tol = 1e-6
			execSeen := 0
			for _, id := range ids {
				spans := byTrace[id]
				var root *telemetry.Span
				var phaseSum, execMJ float64
				hasExec := false
				for i := range spans {
					sp := &spans[i]
					switch {
					case sp.Name == "request":
						root = sp
					case sp.Name == "queue":
						phaseSum += sp.DurationMs()
					case strings.HasPrefix(sp.Name, "exec-"):
						phaseSum += sp.DurationMs()
						execMJ += sp.Attr("energy_mj")
						hasExec = true
					default:
						t.Fatalf("trace %s: unexpected span %q", id, sp.Name)
					}
				}
				if root == nil {
					t.Fatalf("trace %s: no request root span", id)
				}
				latency := root.DurationMs()
				if math.Abs(phaseSum-latency) > tol {
					t.Errorf("trace %s: phases sum to %.9f ms, end-to-end %.9f ms", id, phaseSum, latency)
				}
				reqID, err := strconv.Atoi(id[strings.LastIndexByte(id, '/')+1:])
				if err != nil {
					t.Fatalf("trace %s: bad trace id: %v", id, err)
				}
				d, ok := decByID[reqID]
				if !ok {
					t.Fatalf("trace %s: no matching decision", id)
				}
				if math.Abs(latency-d.LatencyMs) > tol {
					t.Errorf("trace %s: root span %.9f ms, decision latency %.9f ms", id, latency, d.LatencyMs)
				}
				if hasExec {
					execSeen++
					if math.Abs(execMJ-d.EnergyMJ) > tol {
						t.Errorf("trace %s: exec spans carry %.9f mJ, decision attributes %.9f mJ", id, execMJ, d.EnergyMJ)
					}
				}
			}
			if execSeen < res.Completed {
				t.Errorf("exec phases on %d traces, want >= completed (%d)", execSeen, res.Completed)
			}
		})
	}
}

// TestSingleRunsTakeTheGridConfig: RunWaterfall (geminisim phases) and
// LogDecisions (geminisim decisions) run a policy as its first Fig. 12–14
// cell does, on the same trace workload and with the prediction stall
// charged as paysPredictOverhead says, so Baseline runs without it and
// Gemini with it. Their sinks change nothing in the Result.
func TestSingleRunsTakeTheGridConfig(t *testing.T) {
	p := plat(t)
	const avgRPS, durationMs = 400, 3000
	for _, name := range []string{"Baseline", "Gemini"} {
		t.Run(name, func(t *testing.T) {
			pol, err := p.NewPolicy(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := p.SimConfig()
			if !paysPredictOverhead(name) {
				cfg.PredictOverheadMs = 0
			}
			want := sim.Run(cfg, p.traceWorkload("uniform", 0, avgRPS, durationMs), pol)

			res, _, err := p.RunWaterfall(name, "uniform", avgRPS, durationMs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, want) {
				t.Errorf("RunWaterfall: %d completed, %d violations, %.6f mJ; the grid cell: %d, %d, %.6f mJ",
					res.Completed, res.Violations, res.EnergyMJ, want.Completed, want.Violations, want.EnergyMJ)
			}
			res, _, err = p.LogDecisions(io.Discard, name, "uniform", avgRPS, durationMs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, want) {
				t.Errorf("LogDecisions: %d completed, %d violations, %.6f mJ; the grid cell: %d, %d, %.6f mJ",
					res.Completed, res.Violations, res.EnergyMJ, want.Completed, want.Violations, want.EnergyMJ)
			}
		})
	}
}

func TestAnalyzeSpansPhases(t *testing.T) {
	p := plat(t)
	res, spans, err := p.RunWaterfall("Gemini", "uniform", 400, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("no completions")
	}
	sum := AnalyzeSpans("Gemini", spans)
	if sum.Traces != res.Total {
		t.Fatalf("traces = %d, want %d", sum.Traces, res.Total)
	}
	req := sum.Phase("request")
	if req.Count != res.Total {
		t.Errorf("request phase count = %d, want %d", req.Count, res.Total)
	}
	if q := sum.Phase("queue"); q.Count != res.Total {
		t.Errorf("queue phase count = %d, want %d", q.Count, res.Total)
	}
	init := sum.Phase("exec-initial")
	if init.Count == 0 || init.TotalMJ <= 0 {
		t.Errorf("exec-initial phase: count %d energy %.3f", init.Count, init.TotalMJ)
	}
	// Gemini's two-step plan must boost at least some queries.
	if b := sum.Phase("exec-boost"); b.Count == 0 {
		t.Error("no exec-boost phases under Gemini")
	}
	if req.P95Ms < req.MeanMs || req.P99Ms < req.P95Ms {
		t.Errorf("percentiles not monotone: mean %.2f p95 %.2f p99 %.2f", req.MeanMs, req.P95Ms, req.P99Ms)
	}
}

// TestAnalyzeSpansPhaseOrder holds the waterfall's row order: phases come out
// in the order their names first appear in the span set, on every call. The
// set is analysed many times because a map's iteration order is random per
// range and may happen to match on any one call.
func TestAnalyzeSpansPhaseOrder(t *testing.T) {
	want := []string{"request", "queue", "exec-initial", "exec-boost", "admit", "drain"}
	var spans []telemetry.Span
	for tr := 0; tr < 4; tr++ {
		// The first trace names the phases in order, the later ones in
		// reverse, so only first appearance gives want.
		for k := range want {
			name := want[k]
			if tr > 0 {
				name = want[len(want)-1-k]
			}
			spans = append(spans, telemetry.Span{TraceID: strconv.Itoa(tr), Name: name, StartMs: float64(k), EndMs: float64(k + 1)})
		}
	}
	for i := 0; i < 200; i++ {
		sum := AnalyzeSpans("Gemini", spans)
		got := make([]string, len(sum.Phases))
		for j, ph := range sum.Phases {
			got[j] = ph.Name
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("call %d: phases %v, want first-appearance order %v", i, got, want)
		}
	}
}

func TestPhaseReportRenders(t *testing.T) {
	rep, err := plat(t).PhaseReport("uniform", 400, 2000)
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	for _, want := range []string{"Gemini", "Pegasus", "queue", "exec-initial"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
