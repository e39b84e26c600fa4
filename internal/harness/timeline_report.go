package harness

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"gemini/internal/sim"
	"gemini/internal/telemetry"
)

// TimelineSpec parameterizes one shards × replicas topology cell running
// Gemini on every replica at engine RPS 60. The zero value is the canonical
// drift/overload cell: the 8 × 3 power-aware topology under the 40 W cluster
// cap for 3 s — the run whose timeline shows the coordinator stepping
// ceilings down as offered load drifts the queues upward.
type TimelineSpec struct {
	Shards, Replicas    int
	Router              string  // "" = power-aware
	CapW, CapIntervalMs float64 // CapW 0 with Shards 0 defaults to 40 W; explicit topologies keep 0 = uncapped
	DurationMs          float64
	// SampleIntervalMs > 0 attaches the fixed-interval timeline sampler at
	// that interval; 0 runs the cell unsampled.
	SampleIntervalMs float64
}

// The policy and offered load every topology cell runs.
const (
	cellPolicy    = "Gemini"
	cellEngineRPS = 60
)

// normalize fills the zero fields of spec.
func (s *TimelineSpec) normalize() {
	if s.Shards < 1 {
		s.Shards, s.Replicas = 8, 3
		if s.CapW <= 0 {
			s.CapW = 40
		}
	}
	if s.Replicas < 1 {
		s.Replicas = 1
	}
	if s.Router == "" {
		s.Router = "power-aware"
	}
	if s.DurationMs <= 0 {
		s.DurationMs = 3000
	}
}

// CellResult bundles one topology cell run: the summary table and the
// Prometheus exposition of its gemini_cluster_* families (route counters, cap
// throttles, modeled power, query latency histogram), and, for a sampled run,
// the merged cluster series (for JSONL/CSV/HTML export) with its
// drift/overload table.
type CellResult struct {
	Summary    *Report
	Exposition string
	Timeline   *Report               // nil when unsampled
	Series     *telemetry.Timeseries // nil when unsampled
	Res        *sim.TopologyResult
	Spec       TimelineSpec // spec after defaulting
	// BudgetMs is the workload's latency budget — the SLO deadline the
	// series' slo_violations column was classified against.
	BudgetMs float64
}

// CellReport runs one topology cell with cluster telemetry attached, and
// with the fixed-interval sampler too when spec asks for it. The sampled
// series is merged deterministically in core order, so every table and
// export is byte-identical for any GOMAXPROCS. The sampler's ticks count
// in the summary's events column, as in Result.Events; nothing else moves.
func (p *Platform) CellReport(spec TimelineSpec) (*CellResult, error) {
	spec.normalize()
	cfg := p.SimConfig()
	if spec.SampleIntervalMs > 0 {
		cfg.Series = sim.NewRunTimeseries(cfg.Ladder, spec.DurationMs, spec.SampleIntervalMs)
	}
	reg := telemetry.NewRegistry()
	tc := sim.TopologyConfig{Sim: cfg, Seed: 1, Metrics: telemetry.NewClusterMetrics(reg)}
	res, err := p.runCell(spec, cellEngineRPS, tc)
	if err != nil {
		return nil, err
	}

	out := &CellResult{Series: cfg.Series, Res: res, Spec: spec, BudgetMs: p.Opt.BudgetMs}
	out.Summary = &Report{
		Title:  "Cluster topology run",
		Header: append(append([]string{"shards", "replicas", "router"}, topologyHeader...), "events"),
	}
	row := []string{fmt.Sprintf("%d", spec.Shards), fmt.Sprintf("%d", spec.Replicas), spec.Router}
	row = append(row, p.topologyCells(spec.CapW, res)...)
	out.Summary.AddRow(append(row, fmt.Sprintf("%d", res.Events))...)
	out.Summary.Note("policy=%s, engine RPS=%d, duration=%.0f ms", cellPolicy, cellEngineRPS, spec.DurationMs)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		return nil, err
	}
	out.Exposition = sb.String()
	if cfg.Series != nil {
		out.Timeline = timelineTable(cfg.Series, spec, res)
	}
	return out, nil
}

// timelineDisplayBuckets caps the drift/overload table length: longer runs
// are folded into at most this many coarse rows.
const timelineDisplayBuckets = 24

// timelineTable folds the sampled rows into the drift/overload view.
func timelineTable(ts *telemetry.Timeseries, spec TimelineSpec, res *sim.TopologyResult) *Report {
	rows := ts.Rows()
	rep := &Report{
		Title: "Cluster timeline (drift / overload view)",
		Header: []string{"t0 ms", "t1 ms", "drawn W", "believed W", "thr",
			"arrivals", "completions", "queue", "p99 ms", "state"},
	}
	capCell := "-"
	if spec.CapW > 0 {
		capCell = f1(spec.CapW)
	}
	rep.Note("topology %d×%d, router=%s, policy=%s, cap=%s W, sample interval %.0f ms",
		spec.Shards, spec.Replicas, spec.Router, cellPolicy, capCell, spec.SampleIntervalMs)
	rep.Note("state: throttled = cap ceiling step-downs in the bucket; drift = arrivals outpaced completions with the queue deeper at the bucket's end")
	if len(rows) == 0 {
		return rep
	}
	stride := (len(rows) + timelineDisplayBuckets - 1) / timelineDisplayBuckets
	for lo := 0; lo < len(rows); lo += stride {
		hi := lo + stride
		if hi > len(rows) {
			hi = len(rows)
		}
		t0 := 0.0
		if lo > 0 {
			t0 = rows[lo-1].TimeMs
		}
		var arr, comp, drops, thr uint64
		var wSum, p99 float64
		for _, r := range rows[lo:hi] {
			arr += r.Arrivals
			comp += r.Completions
			drops += r.Drops
			thr += r.CapThrottles
			wSum += r.PowerW
			if r.P99Ms > p99 {
				p99 = r.P99Ms
			}
		}
		last := rows[hi-1]
		var states []string
		if thr > 0 {
			states = append(states, "throttled")
		}
		if arr > comp+drops && last.QueueDepth > rows[lo].QueueDepth {
			states = append(states, "drift")
		}
		state := "ok"
		if len(states) > 0 {
			state = strings.Join(states, "+")
		}
		rep.AddRow(
			f1(t0),
			f1(last.TimeMs),
			f2(wSum/float64(hi-lo)),
			f2(last.CapModeledW),
			fmt.Sprintf("%d", thr),
			fmt.Sprintf("%d", arr),
			fmt.Sprintf("%d", comp),
			f1(last.QueueDepth),
			f2(p99),
			state)
	}
	avgW := 0.0
	for _, r := range rows {
		avgW += r.PowerW
	}
	avgW /= float64(len(rows))
	rep.Note("run totals: %d queries, %d throttles, avg %.2f W sampled, p99 %.2f ms",
		res.Queries, res.CapThrottles, avgW, res.TailLatencyMs(99))
	return rep
}

// WriteTimelineHTML renders a self-contained HTML dashboard for one sampled
// series: inline-SVG charts (no scripts, no external assets) for modeled
// power against the cap ceiling, windowed latency percentiles, queue depth
// and in-flight work, arrival/completion throughput with throttle markers,
// and the frequency-residency mix. The output is a deterministic function of
// the series, so dashboards diff cleanly across runs.
func WriteTimelineHTML(w io.Writer, title string, ts *telemetry.Timeseries) error {
	rows := ts.Rows()
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n")
	b.WriteString("<title>" + htmlEscape(title) + "</title>\n<style>\n")
	b.WriteString(`body{font:14px/1.4 system-ui,sans-serif;margin:24px;background:#fafafa;color:#222}
h1{font-size:20px}h2{font-size:15px;margin:18px 0 4px}
svg{background:#fff;border:1px solid #ddd}
.legend span{display:inline-block;margin-right:14px;font-size:12px}
.legend i{display:inline-block;width:10px;height:10px;margin-right:4px;border-radius:2px}
`)
	b.WriteString("</style></head><body>\n")
	fmt.Fprintf(&b, "<h1>%s</h1>\n<p>%d samples, %s ms interval, %d ladder steps.</p>\n",
		htmlEscape(title), len(rows), trimFloat(ts.IntervalMs()), ts.LevelCount())
	if len(rows) == 0 {
		b.WriteString("<p>No samples recorded.</p>\n</body></html>\n")
		_, err := io.WriteString(w, b.String())
		return err
	}

	times := make([]float64, len(rows))
	for i, r := range rows {
		times[i] = r.TimeMs
	}
	col := func(f func(telemetry.TimeseriesRow) float64) []float64 {
		v := make([]float64, len(rows))
		for i, r := range rows {
			v[i] = f(r)
		}
		return v
	}
	perSec := func(f func(telemetry.TimeseriesRow) float64) []float64 {
		v := make([]float64, len(rows))
		prev := 0.0
		for i, r := range rows {
			if dt := r.TimeMs - prev; dt > 0 {
				v[i] = f(r) * 1000 / dt
			}
			prev = r.TimeMs
		}
		return v
	}

	writeChart(&b, "Modeled cluster power (W)", times, []chartSeries{
		{Name: "power", Color: "#c0392b", Values: col(func(r telemetry.TimeseriesRow) float64 { return r.PowerW })},
		{Name: "cap ceiling", Color: "#7f8c8d", Dashed: true, Values: col(func(r telemetry.TimeseriesRow) float64 { return r.CapModeledW })},
	})
	writeChart(&b, "Windowed latency (ms)", times, []chartSeries{
		{Name: "p99", Color: "#8e44ad", Values: col(func(r telemetry.TimeseriesRow) float64 { return r.P99Ms })},
		{Name: "p95", Color: "#2980b9", Values: col(func(r telemetry.TimeseriesRow) float64 { return r.P95Ms })},
		{Name: "p50", Color: "#27ae60", Values: col(func(r telemetry.TimeseriesRow) float64 { return r.P50Ms })},
	})
	writeChart(&b, "Queue depth / in-flight", times, []chartSeries{
		{Name: "queue depth", Color: "#d35400", Values: col(func(r telemetry.TimeseriesRow) float64 { return r.QueueDepth })},
		{Name: "in-flight", Color: "#16a085", Values: col(func(r telemetry.TimeseriesRow) float64 { return r.InFlight })},
	})
	writeChart(&b, "Throughput (req/s) and cap throttles", times, []chartSeries{
		{Name: "arrivals/s", Color: "#2c3e50", Values: perSec(func(r telemetry.TimeseriesRow) float64 { return float64(r.Arrivals) })},
		{Name: "completions/s", Color: "#27ae60", Values: perSec(func(r telemetry.TimeseriesRow) float64 { return float64(r.Completions) })},
		{Name: "throttles/s", Color: "#c0392b", Dashed: true, Values: perSec(func(r telemetry.TimeseriesRow) float64 { return float64(r.CapThrottles) })},
	})
	writeResidency(&b, ts, rows, times)

	b.WriteString("</body></html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// chartSeries is one polyline on a timeline chart.
type chartSeries struct {
	Name   string
	Color  string
	Dashed bool
	Values []float64
}

const (
	chartW, chartH       = 860.0, 180.0
	chartPadL, chartPadR = 56.0, 12.0
	chartPadT, chartPadB = 10.0, 22.0
)

// residencyPalette colors the ladder steps, coolest (lowest GHz) first.
var residencyPalette = []string{
	"#2c7fb8", "#41b6c4", "#a1dab4", "#fecc5c",
	"#fd8d3c", "#f03b20", "#bd0026", "#54278f",
}

// writeChart emits one <svg> line chart: shared x axis (time), y axis sized
// to the maximum across all series, gridlines at quarter steps.
func writeChart(b *strings.Builder, title string, times []float64, series []chartSeries) {
	b.WriteString("<h2>" + htmlEscape(title) + "</h2>\n<div class=\"legend\">")
	for _, s := range series {
		style := "background:" + s.Color
		if s.Dashed {
			style += ";opacity:.55"
		}
		fmt.Fprintf(b, "<span><i style=%q></i>%s</span>", style, htmlEscape(s.Name))
	}
	b.WriteString("</div>\n")

	maxY := 0.0
	for _, s := range series {
		for _, v := range s.Values {
			if v > maxY {
				maxY = v
			}
		}
	}
	if maxY <= 0 {
		maxY = 1
	}
	maxX := times[len(times)-1]
	if maxX <= 0 {
		maxX = 1
	}
	plotW := chartW - chartPadL - chartPadR
	plotH := chartH - chartPadT - chartPadB
	x := func(t float64) float64 { return chartPadL + t/maxX*plotW }
	y := func(v float64) float64 { return chartPadT + (1-v/maxY)*plotH }

	fmt.Fprintf(b, "<svg width=\"%s\" height=\"%s\" viewBox=\"0 0 %s %s\">\n",
		trimFloat(chartW), trimFloat(chartH), trimFloat(chartW), trimFloat(chartH))
	for i := 0; i <= 4; i++ {
		v := maxY * float64(i) / 4
		gy := y(v)
		fmt.Fprintf(b, "<line x1=\"%s\" y1=\"%s\" x2=\"%s\" y2=\"%s\" stroke=\"#eee\"/>\n",
			trimFloat(chartPadL), trimFloat(gy), trimFloat(chartW-chartPadR), trimFloat(gy))
		fmt.Fprintf(b, "<text x=\"%s\" y=\"%s\" font-size=\"10\" fill=\"#888\" text-anchor=\"end\">%s</text>\n",
			trimFloat(chartPadL-4), trimFloat(gy+3), trimFloat(round2(v)))
	}
	fmt.Fprintf(b, "<text x=\"%s\" y=\"%s\" font-size=\"10\" fill=\"#888\">0 ms</text>\n",
		trimFloat(chartPadL), trimFloat(chartH-6))
	fmt.Fprintf(b, "<text x=\"%s\" y=\"%s\" font-size=\"10\" fill=\"#888\" text-anchor=\"end\">%s ms</text>\n",
		trimFloat(chartW-chartPadR), trimFloat(chartH-6), trimFloat(round2(maxX)))
	for _, s := range series {
		dash := ""
		if s.Dashed {
			dash = " stroke-dasharray=\"5 3\""
		}
		b.WriteString("<polyline fill=\"none\" stroke=\"" + s.Color + "\" stroke-width=\"1.5\"" + dash + " points=\"")
		for i, v := range s.Values {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(trimFloat(round2(x(times[i]))) + "," + trimFloat(round2(y(v))))
		}
		b.WriteString("\"/>\n")
	}
	b.WriteString("</svg>\n")
}

// writeResidency emits the frequency-residency mix as a stacked area chart:
// cumulative fractions per ladder step, lowest step at the bottom.
func writeResidency(b *strings.Builder, ts *telemetry.Timeseries, rows []telemetry.TimeseriesRow, times []float64) {
	levels := ts.FreqsGHz()
	if len(levels) == 0 {
		return
	}
	color := func(i int) string { return residencyPalette[i%len(residencyPalette)] }

	b.WriteString("<h2>Frequency residency (fraction of window per ladder step)</h2>\n<div class=\"legend\">")
	for i, f := range levels {
		fmt.Fprintf(b, "<span><i style=\"background:%s\"></i>%s GHz</span>", color(i), trimFloat(f))
	}
	b.WriteString("</div>\n")

	plotW := chartW - chartPadL - chartPadR
	plotH := chartH - chartPadT - chartPadB
	maxX := times[len(times)-1]
	if maxX <= 0 {
		maxX = 1
	}
	x := func(t float64) float64 { return chartPadL + t/maxX*plotW }
	y := func(v float64) float64 { return chartPadT + (1-v)*plotH }

	// cum[i][k] = summed fraction of levels [0, i) in window k.
	cum := make([][]float64, len(levels)+1)
	cum[0] = make([]float64, len(rows))
	for i := range levels {
		cum[i+1] = make([]float64, len(rows))
		for k, r := range rows {
			v := 0.0
			if i < len(r.Residency) {
				v = r.Residency[i]
			}
			cum[i+1][k] = cum[i][k] + v
		}
	}

	fmt.Fprintf(b, "<svg width=\"%s\" height=\"%s\" viewBox=\"0 0 %s %s\">\n",
		trimFloat(chartW), trimFloat(chartH), trimFloat(chartW), trimFloat(chartH))
	for i := range levels {
		b.WriteString("<polygon fill=\"" + color(i) + "\" fill-opacity=\"0.85\" stroke=\"none\" points=\"")
		for k := range rows {
			if k > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(trimFloat(round2(x(times[k]))) + "," + trimFloat(round2(y(cum[i+1][k]))))
		}
		for k := len(rows) - 1; k >= 0; k-- {
			b.WriteByte(' ')
			b.WriteString(trimFloat(round2(x(times[k]))) + "," + trimFloat(round2(y(cum[i][k]))))
		}
		b.WriteString("\"/>\n")
	}
	fmt.Fprintf(b, "<text x=\"%s\" y=\"%s\" font-size=\"10\" fill=\"#888\">0 ms</text>\n",
		trimFloat(chartPadL), trimFloat(chartH-6))
	fmt.Fprintf(b, "<text x=\"%s\" y=\"%s\" font-size=\"10\" fill=\"#888\" text-anchor=\"end\">%s ms</text>\n",
		trimFloat(chartW-chartPadR), trimFloat(chartH-6), trimFloat(round2(maxX)))
	b.WriteString("</svg>\n")
}

// round2 rounds to two decimals — enough SVG precision, and it keeps the
// output stable and compact.
func round2(v float64) float64 {
	if v < 0 {
		return -round2(-v)
	}
	return float64(int64(v*100+0.5)) / 100
}

// trimFloat formats a float without trailing zeros.
func trimFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// htmlEscape escapes the handful of characters that matter in text nodes and
// double-quoted attributes.
func htmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
