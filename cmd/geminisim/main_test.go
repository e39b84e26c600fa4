package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"gemini/internal/simd"
)

// runCLI runs the command line in process and returns its exit status and
// both streams.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestRunRejectsBadInvocations: every usage error exits 2 with a message
// naming the problem, before any platform is built.
func TestRunRejectsBadInvocations(t *testing.T) {
	out := filepath.Join(t.TempDir(), "d.jsonl")
	cases := []struct {
		name string
		args []string
		want string // in stderr
	}{
		{"unknown subcommand", []string{"bogus"}, `unknown subcommand "bogus"`},
		{"another subcommand's flag", []string{"cell", "-exp", "fig10"}, "flag provided but not defined: -exp"},
		{"a flag capacity does not take", []string{"capacity", "-replicas", "3"}, "flag provided but not defined: -replicas"},
		{"bad router", []string{"cell", "-small", "-router", "bogus"}, "round-robin, least-loaded, deadline-aware, power-aware"},
		{"bad router, capacity", []string{"capacity", "-small", "-router", "bogus"}, "power-aware"},
		{"bad policy", []string{"decisions", "-small", "-out", out, "-policy", "Nope"}, "Gemini+Sleep"},
		{"decisions without -out", []string{"decisions", "-small"}, "-out is required"},
		{"unknown experiment", []string{"-small", "-exp", "fig99"}, `unknown experiment "fig99"`},
		{"stray argument", []string{"list", "fig10"}, `unexpected argument "fig10"`},
		{"cap interval without a cap", []string{"cell", "-small", "-power-cap", "0", "-cap-interval", "50"}, "-cap-interval needs -power-cap"},
		{"zero sample interval", []string{"cell", "-small", "-sample-interval", "0"}, "-sample-interval must be positive"},
		{"NaN power cap", []string{"cell", "-small", "-power-cap", "NaN"}, "-power-cap must be finite"},
		{"infinite power cap, capacity", []string{"capacity", "-small", "-power-cap", "Inf"}, "-power-cap must be finite"},
		{"NaN power cap, capacity", []string{"capacity", "-small", "-power-cap", "NaN"}, "-power-cap must be finite"},
		{"NaN cap interval", []string{"cell", "-small", "-cap-interval", "NaN"}, "-cap-interval must be positive and finite"},
		{"negative cap interval", []string{"cell", "-small", "-cap-interval", "-5"}, "-cap-interval must be positive and finite"},
		{"zero cap interval", []string{"cell", "-small", "-cap-interval", "0"}, "-cap-interval must be positive and finite"},
		{"infinite cap interval", []string{"cell", "-small", "-cap-interval", "+Inf"}, "-cap-interval must be positive and finite"},
		{"infinite durscale", []string{"cell", "-small", "-durscale", "Inf"}, "-durscale must be finite and >= 0"},
		{"NaN durscale", []string{"-small", "-exp", "fig10", "-durscale", "NaN"}, "-durscale must be finite and >= 0"},
		{"negative durscale", []string{"cluster", "-small", "-durscale", "-1"}, "-durscale must be finite and >= 0"},
		{"NaN sample interval", []string{"cell", "-small", "-sample-interval", "NaN"}, "-sample-interval must be positive and finite"},
		{"infinite sample interval", []string{"cell", "-small", "-sample-interval", "Inf"}, "-sample-interval must be positive and finite"},
		{"SLO target of 100 or more", []string{"cell", "-small", "-slo-target", "150"}, "-slo-target must be in (0, 100)"},
		{"NaN SLO target", []string{"cell", "-small", "-slo-target", "NaN"}, "-slo-target must be in (0, 100)"},
		{"zero cores", []string{"cluster", "-small", "-cores", "0"}, "-cores must be at least 1"},
		{"negative cores", []string{"cluster", "-small", "-cores", "-5"}, "-cores must be at least 1"},
		{"negative shards", []string{"cell", "-small", "-shards", "-3"}, "-shards and -replicas must be at least 1"},
		{"zero replicas", []string{"cell", "-small", "-replicas", "0"}, "-shards and -replicas must be at least 1"},
		{"zero shards, capacity", []string{"capacity", "-small", "-shards", "0"}, "-shards must be at least 1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, _, stderr := runCLI(c.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2; stderr:\n%s", code, stderr)
			}
			if !strings.Contains(stderr, c.want) {
				t.Errorf("stderr lacks %q:\n%s", c.want, stderr)
			}
			if strings.Contains(stderr, "building platform") {
				t.Errorf("platform built before the error:\n%s", stderr)
			}
		})
	}
	if _, err := os.Stat(out); err == nil {
		t.Error("a rejected decisions run created its output file")
	}
}

// TestCellWorkersIdentical: the sampled cell's stdout (summary, exposition,
// timeline and SLO tables) and its JSONL export are byte-identical at
// GOMAXPROCS 1 and 4, which set the cell's worker count.
func TestCellWorkersIdentical(t *testing.T) {
	dir := t.TempDir()
	cell := func(procs int) (string, []byte) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		path := filepath.Join(dir, fmt.Sprintf("tl-%d.jsonl", procs))
		code, stdout, stderr := runCLI("cell", "-small", "-durscale", "0.02", "-timeline", path, "-slo")
		if code != 0 {
			t.Fatalf("GOMAXPROCS=%d: exit %d\n%s", procs, code, stderr)
		}
		jsonl, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return stdout, jsonl
	}
	out1, jsonl1 := cell(1)
	out4, jsonl4 := cell(4)
	if out1 != out4 {
		t.Errorf("stdout differs between GOMAXPROCS 1 and 4:\n--- 1\n%s\n--- 4\n%s", out1, out4)
	}
	if !bytes.Equal(jsonl1, jsonl4) {
		t.Error("timeline JSONL differs between GOMAXPROCS 1 and 4")
	}
	for _, want := range []string{"Cluster topology run", `gemini_cluster_route_total{shard="7",replica="2"}`,
		"Cluster timeline (drift / overload view)", "SLO attainment"} {
		if !strings.Contains(out1, want) {
			t.Errorf("stdout lacks %q", want)
		}
	}
	if len(jsonl1) == 0 {
		t.Error("empty timeline export")
	}
}

// TestEverySubcommandRuns runs each subcommand once on the small platform at
// a short run length: exit 0 and a non-empty report.
func TestEverySubcommandRuns(t *testing.T) {
	dir := t.TempDir()
	short := []string{"-small", "-durscale", "0.02"}
	cases := [][]string{
		append([]string{"-exp", "fig3"}, short...),
		{"list"},
		append([]string{"cell"}, short...),
		append([]string{"capacity", "-power-cap", "14"}, short...),
		append([]string{"cluster", "-cores", "2"}, short...),
		append([]string{"phases"}, short...),
		{"trace", "-kind", "wiki", "-duration", "10", "-stats"},
		{"train", "-small", "-save", dir},
	}
	for _, args := range cases {
		code, stdout, stderr := runCLI(args...)
		if code != 0 || stdout == "" {
			t.Errorf("%v: exit %d, %d bytes out\n%s", args, code, len(stdout), stderr)
		}
	}
	dec := filepath.Join(dir, "d.jsonl")
	if code, _, stderr := runCLI(append([]string{"decisions", "-out", dec}, short...)...); code != 0 {
		t.Errorf("decisions: exit %d\n%s", code, stderr)
	}
	for _, f := range []string{dec, filepath.Join(dir, "latency_classifier.gob"), filepath.Join(dir, "error_predictor.gob")} {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Errorf("%s: missing or empty (%v)", f, err)
		}
	}
}

// TestPaperNumbersGolden runs every experiment in process and compares the
// reports with the checked-in goldens, byte for byte: the small platform's
// with testdata/results_small.golden, and the full platform's with
// results_full.txt, the file CI's cmp step checks the binary against. The
// full comparison runs on amd64 only, like TestTrainedWeightsGolden: the
// golden was written on an amd64 host with FMA, where math.Exp takes its
// fused path, and an amd64 host without FMA fails it for that reason.
func TestPaperNumbersGolden(t *testing.T) {
	cases := []struct {
		name, golden string
		args         []string
	}{
		{"small", filepath.Join("testdata", "results_small.golden"), []string{"-small", "-exp", "all"}},
		{"full", filepath.Join("..", "..", "results_full.txt"), []string{"-exp", "all"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.name == "full" && runtime.GOARCH != "amd64" {
				t.Skip("results_full.txt holds amd64 bits")
			}
			want, err := os.ReadFile(c.golden)
			if err != nil {
				t.Fatal(err)
			}
			code, got, stderr := runCLI(c.args...)
			if code != 0 {
				t.Fatalf("exit %d\n%s", code, stderr)
			}
			if msg := firstMoved(string(want), got); msg != "" {
				if c.name == "full" && !simd.FMA {
					msg += " (this CPU has no FMA; the golden holds math.Exp's fused-path bits)"
				}
				t.Errorf("%v differs from %s: %s", c.args, c.golden, msg)
			}
		})
	}
}

// firstMoved returns "" where got equals want, and otherwise names the first
// report section (its "== … ==" header) and line where they differ, and how
// many of want's sections follow that one and how many of those moved too.
func firstMoved(want, got string) string {
	if want == got {
		return ""
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	i := 0
	for i < len(w) && i < len(g) && w[i] == g[i] {
		i++
	}
	section := "(before the first section)"
	for j := min(i, len(w)-1); j >= 0; j-- {
		if isSection(w[j]) {
			section = w[j]
			break
		}
	}
	headers, wantBody := sections(w)
	_, gotBody := sections(g)
	after := headers[slices.Index(headers, section)+1:]
	moved := 0
	for _, h := range after {
		if wantBody[h] != gotBody[h] {
			moved++
		}
	}
	line := func(lines []string) string {
		if i < len(lines) {
			return fmt.Sprintf("%q", lines[i])
		}
		return "end of output"
	}
	return fmt.Sprintf("first moved section %s, at line %d: want %s, got %s; %d section(s) follow it, %d of them moved too",
		section, i+1, line(w), line(g), len(after), moved)
}

// sections splits a report's lines into its sections: the headers in order,
// and each header's lines (those before the first header under "").
func sections(lines []string) (headers []string, body map[string]string) {
	body = map[string]string{}
	h := ""
	for _, l := range lines {
		if isSection(l) {
			h = l
			headers = append(headers, h)
		}
		body[h] += l + "\n"
	}
	return headers, body
}

// isSection reports whether a report line is a section header.
func isSection(l string) bool { return strings.HasPrefix(l, "== ") && strings.HasSuffix(l, " ==") }
