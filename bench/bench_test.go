package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"gemini/internal/harness"
)

// declared is BENCHMARK.json as the driver reads it.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []declaredMetric `json:"end_to_end"`
	PerLayer   []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d
}

// smokeConfig is the whole benchmark on the small platform at about a
// hundredth of the work.
func smokeConfig(t *testing.T, traced bool) config {
	cfg := config{
		seed:     1,
		traced:   traced,
		opts:     harness.SmallOptions(),
		size:     sizes{cellReps: 1, observedReps: 1, cellSimMs: 3000, sweepReps: 1, sweepSimMs: 3000, queries: 170, requests: 50},
		deadline: time.Minute,
	}
	for _, w := range workloads {
		cfg.workloads = append(cfg.workloads, w.name)
	}
	if traced {
		cfg.traceOut = filepath.Join(t.TempDir(), "spans.jsonl")
	}
	return cfg
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestDeclaredMetricsArePrinted runs every workload untraced and traced and
// requires each to print exactly the metrics BENCHMARK.json declares, once,
// with the declared unit and a finite value.
func TestDeclaredMetricsArePrinted(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) > 8 || len(d.EndToEnd) > 16 || len(d.PerLayer) > 128 {
		t.Fatalf("BENCHMARK.json declares %d workloads, %d end-to-end and %d per-layer metrics; the limits are 8, 16 and 128",
			len(d.Workloads), len(d.EndToEnd), len(d.PerLayer))
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, bench has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in bench", i, w.Name, workloads[i].name)
		}
	}

	for _, mode := range []struct {
		traced bool
		decl   []declaredMetric
		defs   []metricDef
	}{{false, d.EndToEnd, endToEnd}, {true, d.PerLayer, perLayer}} {
		if len(mode.decl) != len(mode.defs) {
			t.Fatalf("traced=%v: BENCHMARK.json declares %d metrics, bench prints %d", mode.traced, len(mode.decl), len(mode.defs))
		}
		for i, m := range mode.decl {
			if m.Name != mode.defs[i].name || m.Unit != mode.defs[i].unit {
				t.Errorf("traced=%v metric %d: BENCHMARK.json has %s [%s], bench has %s [%s]",
					mode.traced, i, m.Name, m.Unit, mode.defs[i].name, mode.defs[i].unit)
			}
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", m.Name)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %s: better is %q", m.Name, m.Better)
			}
			if (m.Bound != nil) == mode.traced {
				t.Errorf("metric %s: only end-to-end metrics carry a bound", m.Name)
			}
		}

		var out bytes.Buffer
		ok, err := run(&out, smokeConfig(t, mode.traced))
		if err != nil || !ok {
			t.Fatalf("traced=%v: ok=%v err=%v\n%s", mode.traced, ok, err, out.String())
		}
		// One table and one JSON line per workload, in order.
		blocks := strings.Split(out.String(), "workload ")[1:]
		if len(blocks) != len(workloads) {
			t.Fatalf("traced=%v: %d workload reports, want %d", mode.traced, len(blocks), len(workloads))
		}
		for i, block := range blocks {
			name := workloads[i].name
			if !strings.HasPrefix(block, name+":") {
				t.Fatalf("report %d starts %q, want workload %s", i, block[:min(len(block), 40)], name)
			}
			lines := strings.Split(strings.TrimSpace(block), "\n")
			var line resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", name, err)
			}
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d", name, line.Correct, line.Attempted, line.Failed)
			}
			if len(line.Metrics) != len(mode.decl) {
				t.Errorf("%s: %d metrics in the result object, %d declared", name, len(line.Metrics), len(mode.decl))
			}
			for _, m := range mode.decl {
				got, ok := line.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s: metric %s = %+v (present=%v), want a finite value in %s", name, m.Name, got, ok, m.Unit)
				}
				if !mode.traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
				rows := 0
				for _, l := range lines {
					if f := strings.Fields(l); len(f) > 0 && f[0] == m.Name {
						rows++
					}
				}
				if rows != 1 {
					t.Errorf("%s: metric %s printed %d times", name, m.Name, rows)
				}
			}
			if sim := strings.HasPrefix(name, "sim_"); sim != strings.Contains(block, "\nfingerprint "+name+" ") {
				t.Errorf("%s: fingerprint line present = %v", name, !sim)
			}
		}
	}
}

// TestSpanFile checks a traced run writes its spans as JSON lines whose
// parents precede them.
func TestSpanFile(t *testing.T) {
	cfg := smokeConfig(t, true)
	cfg.workloads = []string{"query_path"}
	var out bytes.Buffer
	if ok, err := run(&out, cfg); err != nil || !ok {
		t.Fatalf("ok=%v err=%v\n%s", ok, err, out.String())
	}
	raw, err := os.ReadFile(cfg.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if len(lines) < 7*segments*cfg.size.queries {
		t.Fatalf("%d spans for %d traced queries", len(lines), segments*cfg.size.queries)
	}
	for i, l := range lines {
		var s span
		if err := json.Unmarshal(l, &s); err != nil {
			t.Fatalf("span %d: %v", i, err)
		}
		if s.ID != i || s.Parent >= s.ID || s.EndNs < s.StartNs || s.Name == "" {
			t.Fatalf("span %d is %+v", i, s)
		}
	}
}

// TestSelfTime pins the self-time rule: a span minus the union of its
// children, clipped to the span.
func TestSelfTime(t *testing.T) {
	r := newRecorder()
	root := r.add("root", 0, -1, 0, 100)
	r.add("kid", 0, root, 10, 40)
	r.add("kid", 0, root, 30, 60) // overlaps the first: the union is 10..60
	r.add("kid", 0, root, 90, 120)
	if got := r.selfNs("root"); len(got) != 1 || got[0] != 40 {
		t.Errorf("self time %v, want [40]", got)
	}
	if got := r.durationsNs("kid"); len(got) != 3 || got[0] != 30 {
		t.Errorf("durations %v", got)
	}
}

// TestDecoratorsLeaveResultsIdentical runs the cluster cell and the sweep
// grid with and without the timing decorators (and the span recorder) and
// requires bit-identical simulated statistics.
func TestDecoratorsLeaveResultsIdentical(t *testing.T) {
	b := &bench{p: harness.NewPlatform(harness.SmallOptions()), seed: 7, size: sizes{cellSimMs: 5000}}
	for _, observed := range []bool{false, true} {
		plain := b.cell(0, 2, observed, nil, nil)
		deco := newSimDeco()
		wrapped := b.cell(0, 2, observed, newRecorder(), deco)
		if !sameOutcome(plain, wrapped, true) {
			t.Errorf("observed=%v: decorated cell differs from the plain one", observed)
		}
		if deco.router.calls == 0 || deco.policy[cellPolicy].calls == 0 || deco.requests[cellPolicy] != int64(plain.res.ShardRequests) {
			t.Errorf("observed=%v: decorators saw %+v", observed, deco)
		}
	}

	hash := func(g grid) uint64 {
		h := newFNV()
		for _, r := range g.single {
			hashResult(h, r)
		}
		for _, c := range g.cluster {
			for _, r := range c.PerCore {
				hashResult(h, r)
			}
		}
		return uint64(*h)
	}
	deco := newSimDeco()
	if hash(b.sweepGrid(0, 5000, nil, nil, nil)) != hash(b.sweepGrid(0, 5000, newRecorder(), deco, nil)) {
		t.Error("decorated sweep grid differs from the plain one")
	}
	for _, name := range harness.PolicyNames {
		if deco.policy[name].calls == 0 {
			t.Errorf("no callbacks timed for policy %s", name)
		}
	}
}

func TestPercentileOfNothingReadsZero(t *testing.T) {
	if percentile(nil, 50) != 0 || median(nil) != 0 {
		t.Error("empty input should read 0")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}
