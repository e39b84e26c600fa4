// Command geminisim runs the reproduction: every table and figure of the
// paper's evaluation and the ablations, plus the cluster, trace and predictor
// tools around them, each a subcommand with its own flags.
//
// Usage:
//
//	geminisim -exp fig10                    # one experiment; exp is the default subcommand
//	geminisim -small -exp all               # everything, on the fast small-scale platform
//	geminisim cell -timeline tl.jsonl -slo  # one shards × replicas cell, sampled
//	geminisim trace -kind lucene -stats     # synthetic arrivals as CSV, or statistics
//	geminisim train -save models/           # Figs. 6-8, and write the trained models
//
// `geminisim -h` lists the subcommands, `geminisim <subcommand> -h` its
// flags. Reports go to stdout, progress to stderr. Any error exits with
// status 2; a bad flag, name or combination is caught before the platform
// is built.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"gemini/internal/harness"
	"gemini/internal/predictor"
	"gemini/internal/sim"
	"gemini/internal/stats"
	"gemini/internal/telemetry"
	"gemini/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// command is one subcommand: setup registers its flags and returns the
// function that runs it once they are parsed.
type command struct {
	name, summary string
	setup         func(fs *flag.FlagSet, e *env) func() error
}

var commands = []command{
	{"exp", "run paper experiments (the default subcommand)", expCmd},
	{"list", "list experiment names", listCmd},
	{"cell", "run one shards × replicas topology cell; the timeline flags sample it", cellCmd},
	{"capacity", "run the capacity-planning grid (replicas × RPS × cap)", capacityCmd},
	{"cluster", "run the §V multi-core broker for every Fig. 10/11 policy", clusterCmd},
	{"decisions", "write per-request decision records for one policy/trace cell", decisionsCmd},
	{"phases", "print every policy's per-phase latency/energy waterfall", phasesCmd},
	{"trace", "write a synthetic arrival trace as CSV, or its statistics", traceCmd},
	{"train", "print the predictor figures 6, 7 and 8; -save writes the models", trainCmd},
}

// env is what a subcommand runs with: the output streams and the flags
// shared by the subcommands that build a platform.
type env struct {
	stdout, stderr         io.Writer
	small                  bool
	durScale               float64
	cpuProfile, memProfile string
}

func run(args []string, stdout, stderr io.Writer) int {
	name := "exp"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
	}
	i := slices.IndexFunc(commands, func(c command) bool { return c.name == name })
	usage := func() {
		fmt.Fprintln(stderr, "usage: geminisim [subcommand] [flags]; subcommands:")
		for _, c := range commands {
			fmt.Fprintf(stderr, "  %-10s %s\n", c.name, c.summary)
		}
	}
	if i < 0 {
		fmt.Fprintf(stderr, "geminisim: unknown subcommand %q\n", name)
		usage()
		return 2
	}

	e := &env{stdout: stdout, stderr: stderr}
	fs := flag.NewFlagSet("geminisim "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	exec := commands[i].setup(fs, e)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "geminisim %s: %s\n", name, commands[i].summary)
		fs.PrintDefaults()
		usage()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "geminisim %s: unexpected argument %q\n", name, fs.Arg(0))
		return 2
	}
	if d := e.durScale; !(d >= 0) || math.IsInf(d, 1) {
		fmt.Fprintf(stderr, "geminisim %s: -durscale must be finite and >= 0\n", name)
		return 2
	}

	if e.cpuProfile != "" {
		f, err := os.Create(e.cpuProfile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		defer func() { pprof.StopCPUProfile(); f.Close() }()
	}
	if e.memProfile != "" {
		defer func() {
			runtime.GC()
			if err := writeFile(e.memProfile, pprof.WriteHeapProfile); err != nil {
				fmt.Fprintln(stderr, err)
			}
		}()
	}

	if err := exec(); err != nil {
		fmt.Fprintf(stderr, "geminisim %s: %v\n", name, err)
		return 2
	}
	return 0
}

// platformFlags registers the flags every platform-building subcommand
// shares. scaled adds -durscale, for the subcommands whose runs have a length
// to scale. The experiment grids and the cluster runs take their worker
// count from GOMAXPROCS; no output depends on it.
func (e *env) platformFlags(fs *flag.FlagSet, scaled bool) {
	fs.BoolVar(&e.small, "small", false, "use the fast small-scale platform")
	if scaled {
		fs.Float64Var(&e.durScale, "durscale", 0, "scale simulated durations (default 1.0, or 0.2 with -small)")
	}
	fs.StringVar(&e.cpuProfile, "cpuprofile", "", "write a CPU profile to this path")
	fs.StringVar(&e.memProfile, "memprofile", "", "write a heap profile to this path on exit")
}

// scale is the simulated-duration multiplier: -durscale, else 1, or 0.2
// with -small.
func (e *env) scale() float64 {
	switch {
	case e.durScale > 0:
		return e.durScale
	case e.small:
		return 0.2
	}
	return 1
}

// platform builds the platform -small picks, once per process; paper trains
// the paper's 5x128 predictor architecture on a fresh one instead.
func (e *env) platform(paper bool) *harness.Platform {
	start := time.Now()
	fmt.Fprintf(e.stderr, "building platform (small=%v)...\n", e.small)
	var p *harness.Platform
	if paper {
		opts := harness.DefaultOptions()
		if e.small {
			opts = harness.SmallOptions()
		}
		opts.NNConfig = predictor.PaperConfig()
		p = harness.NewPlatform(opts)
	} else {
		p = harness.Shared(e.small)
	}
	ps := p.PoolStats()
	fmt.Fprintf(e.stderr, "platform ready in %v: pool service times mean %.2f ms, p50 %.2f, p90 %.2f, p95 %.2f, min %.2f, max %.2f\n",
		time.Since(start).Round(time.Millisecond), ps.Mean, ps.P50, ps.P90, ps.P95, ps.Min, ps.Max)
	return p
}

// experiments runs the named experiments on p through one ExperimentSet,
// printing each report.
func (e *env) experiments(p *harness.Platform, names []string) error {
	if slices.Contains(names, "fig7") {
		fmt.Fprintf(e.stderr, "measured inference: PredictMs + PredictErrMs %.2f µs per query (warm, fastest of 5 passes over %d pool queries)\n",
			float64(inferenceCost(p).Nanoseconds())/1e3, len(p.Pool))
	}
	set := harness.NewExperimentSet(p, e.scale())
	fmt.Fprintf(e.stderr, "experiment grids run on %d worker(s) (GOMAXPROCS)\n", runtime.GOMAXPROCS(0))
	for _, name := range names {
		t0 := time.Now()
		if err := e.print(set.Run(name)); err != nil {
			return err
		}
		fmt.Fprintf(e.stderr, "[%s done in %v]\n\n", name, time.Since(t0).Round(time.Millisecond))
	}
	return nil
}

// inferenceCost is what the decision path's two predictions cost per query
// on this host: the deployed classifier's PredictMs plus the error
// predictor's PredictErrMs over every pool query, the fastest of 5 timed
// passes. Fig. 7's overhead column is modeled, not timed; this is the
// timing, and it stays on stderr, out of every golden.
func inferenceCost(p *harness.Platform) time.Duration {
	best := time.Duration(math.MaxInt64)
	for range 5 {
		t0 := time.Now()
		for _, q := range p.Pool {
			p.Classifier.PredictMs(q.Features)
			p.ErrPred.PredictErrMs(q.Features)
		}
		best = min(best, time.Since(t0))
	}
	return best / time.Duration(len(p.Pool))
}

// print writes rep to stdout, unless err is set.
func (e *env) print(rep *harness.Report, err error) error {
	if err == nil {
		fmt.Fprintln(e.stdout, rep.String())
	}
	return err
}

func expCmd(fs *flag.FlagSet, e *env) func() error {
	e.platformFlags(fs, true)
	exp := fs.String("exp", "all", "experiment to run (see the list subcommand), or all")
	return func() error {
		names := harness.NewExperimentSet(nil, 1).Names()
		if *exp != "all" {
			if !slices.Contains(names, *exp) {
				return fmt.Errorf("unknown experiment %q (see geminisim list)", *exp)
			}
			names = []string{*exp}
		}
		return e.experiments(e.platform(false), names)
	}
}

func listCmd(_ *flag.FlagSet, e *env) func() error {
	return func() error {
		for _, n := range harness.NewExperimentSet(nil, 1).Names() {
			fmt.Fprintln(e.stdout, n)
		}
		return nil
	}
}

func cellCmd(fs *flag.FlagSet, e *env) func() error {
	e.platformFlags(fs, true)
	var spec harness.TimelineSpec
	fs.IntVar(&spec.Shards, "shards", 8, "shards in the cell")
	fs.IntVar(&spec.Replicas, "replicas", 3, "replicas per shard")
	routerFlag(fs, &spec.Router)
	fs.Float64Var(&spec.CapW, "power-cap", 40, "cluster power cap in modeled watts (0 = uncapped)")
	fs.Float64Var(&spec.CapIntervalMs, "cap-interval", 0, "power-cap control interval in ms, positive (unset: 100)")
	jsonl := fs.String("timeline", "", "sample the run and write the series (JSONL) to this path")
	csv := fs.String("timeline-csv", "", "sample the run and write the series as CSV to this path")
	html := fs.String("timeline-html", "", "sample the run and write the self-contained SVG dashboard to this path")
	sampleIv := fs.Float64("sample-interval", 100, "timeline sample interval in simulated ms (setting it samples the run)")
	slo := fs.Bool("slo", false, "sample the run and print its SLO error-budget burn table")
	sloTarget := fs.Float64("slo-target", 99, "SLO target percentile (setting it implies -slo)")
	return func() error {
		if spec.Shards < 1 || spec.Replicas < 1 {
			return errors.New("-shards and -replicas must be at least 1")
		}
		if math.IsNaN(spec.CapW) || math.IsInf(spec.CapW, 0) {
			return errors.New("-power-cap must be finite")
		}
		if spec.CapW <= 0 && isSet(fs, "cap-interval") {
			return errors.New("-cap-interval needs -power-cap > 0")
		}
		if iv := spec.CapIntervalMs; isSet(fs, "cap-interval") && (math.IsNaN(iv) || iv <= 0 || math.IsInf(iv, 1)) {
			return errors.New("-cap-interval must be positive and finite")
		}
		if t := *sloTarget; !(t > 0 && t < 100) {
			return errors.New("-slo-target must be in (0, 100)")
		}
		*slo = *slo || isSet(fs, "slo-target")
		if *slo || *jsonl != "" || *csv != "" || *html != "" || isSet(fs, "sample-interval") {
			if iv := *sampleIv; !(iv > 0) || math.IsInf(iv, 1) {
				return errors.New("-sample-interval must be positive and finite")
			}
			spec.SampleIntervalMs = *sampleIv
		}
		spec.DurationMs = 60_000 * e.scale()
		cr, err := e.platform(false).CellReport(spec)
		if err != nil {
			return err
		}
		e.print(cr.Summary, nil)
		fmt.Fprint(e.stdout, cr.Exposition)
		if cr.Series == nil {
			return nil
		}
		title := fmt.Sprintf("Gemini cluster timeline — %d×%d %s", cr.Spec.Shards, cr.Spec.Replicas, cr.Spec.Router)
		for _, out := range []struct {
			path  string
			write func(io.Writer) error
		}{
			{*jsonl, cr.Series.WriteJSONL},
			{*csv, cr.Series.WriteCSV},
			{*html, func(w io.Writer) error { return harness.WriteTimelineHTML(w, title, cr.Series) }},
		} {
			if out.path == "" {
				continue
			}
			if err := writeFile(out.path, out.write); err != nil {
				return err
			}
			fmt.Fprintf(e.stderr, "timeline: %d samples -> %s\n", cr.Series.Len(), out.path)
		}
		e.print(cr.Timeline, nil)
		if *slo {
			e.print(harness.SLOReport(cr, *sloTarget), nil)
		}
		return nil
	}
}

func capacityCmd(fs *flag.FlagSet, e *env) func() error {
	e.platformFlags(fs, true)
	spec := harness.CapacitySpec{Replicas: []int{1, 2, 3}, EngineRPS: []float64{40, 60}, Seed: 1}
	fs.IntVar(&spec.Shards, "shards", 2, "shards in every cell")
	routerFlag(fs, &spec.Router)
	capW := fs.Float64("power-cap", 0, "also sweep this cluster power cap in modeled watts (the uncapped column always runs)")
	return func() error {
		if spec.Shards < 1 {
			return errors.New("-shards must be at least 1")
		}
		if math.IsNaN(*capW) || math.IsInf(*capW, 0) {
			return errors.New("-power-cap must be finite")
		}
		spec.CapsW = []float64{0}
		if *capW > 0 {
			spec.CapsW = append(spec.CapsW, *capW)
		}
		spec.DurationMs = 60_000 * e.scale()
		return e.print(e.platform(false).CapacityReport(spec))
	}
}

func clusterCmd(fs *flag.FlagSet, e *env) func() error {
	e.platformFlags(fs, true)
	cores := fs.Int("cores", 12, "cores the broker spreads the stream over")
	return func() error {
		if *cores < 1 {
			return errors.New("-cores must be at least 1")
		}
		return e.print(e.platform(false).ClusterReport(*cores, 60, 120_000*e.scale()), nil)
	}
}

func decisionsCmd(fs *flag.FlagSet, e *env) func() error {
	e.platformFlags(fs, true)
	out := fs.String("out", "", "write the decision records (JSONL) to this path (required)")
	pol := "Gemini"
	fs.Func("policy", "policy to run (default Gemini)", func(s string) error {
		if !slices.Contains(harness.AllPolicyNames, s) {
			return fmt.Errorf("unknown policy (%s)", strings.Join(harness.AllPolicyNames, ", "))
		}
		pol = s
		return nil
	})
	tr := fs.String("trace", "wiki", "arrival trace: wiki, lucene, trec")
	return func() error {
		if *out == "" {
			return errors.New("-out is required")
		}
		p := e.platform(false)
		var res *sim.Result
		var tracer *telemetry.Tracer
		err := writeFile(*out, func(w io.Writer) (err error) {
			res, tracer, err = p.LogDecisions(w, pol, *tr, 60, 120_000*e.scale())
			return err
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(e.stderr, "%s on %s: %d decisions -> %s\n", pol, *tr, tracer.Emitted(), *out)
		fmt.Fprintf(e.stderr, "completed %d, dropped %d, violation %.2f%%, p95 %.2f ms\n",
			res.Completed, res.Dropped, res.ViolationRate()*100, res.TailLatencyMs(95))
		if q := tracer.Quality(); q.N > 0 {
			fmt.Fprintf(e.stderr, "prediction audit: MAE %.2f ms, p95 |err| %.2f ms, coverage %.1f%% (n=%d)\n",
				q.MAEMs, q.P95Ms, q.CoverageRate*100, q.N)
		}
		return nil
	}
}

func phasesCmd(fs *flag.FlagSet, e *env) func() error {
	e.platformFlags(fs, true)
	tr := fs.String("trace", "wiki", "arrival trace: wiki, lucene, trec")
	return func() error {
		return e.print(e.platform(false).PhaseReport(*tr, 60, 120_000*e.scale()))
	}
}

func traceCmd(fs *flag.FlagSet, e *env) func() error {
	kind := fs.String("kind", "wiki", "trace model: wiki, lucene, trec, fixed, wiki-long")
	rps := fs.Float64("rps", 60, "average request rate")
	duration := fs.Float64("duration", 1000, "duration in seconds (hours for wiki-long)")
	seed := fs.Int64("seed", 1, "random seed")
	statsOnly := fs.Bool("stats", false, "print statistics instead of CSV")
	return func() error {
		var tr *trace.Trace
		switch *kind {
		case "fixed":
			tr = trace.GenFixedRPS(*rps, *duration*1000, *seed)
		case "wiki-long":
			tr = trace.GenWikipediaLong(*rps, *duration, *seed)
		default:
			tr = trace.GenEvalTrace(*kind, *rps, *duration*1000, *seed)
		}
		if *statsOnly {
			printTraceStats(e.stdout, tr)
			return nil
		}
		w := bufio.NewWriter(e.stdout)
		fmt.Fprintln(w, "arrival_ms")
		for _, a := range tr.Arrivals {
			fmt.Fprintf(w, "%.3f\n", a)
		}
		fmt.Fprintf(e.stderr, "%d arrivals, mean %.1f RPS\n", tr.Len(), tr.MeanRPS())
		return w.Flush()
	}
}

func printTraceStats(w io.Writer, tr *trace.Trace) {
	fmt.Fprintf(w, "trace: %s\n", tr.Name)
	fmt.Fprintf(w, "arrivals: %d over %.1f s (mean %.2f RPS)\n",
		tr.Len(), tr.DurationMs()/1000, tr.MeanRPS())
	if sec := tr.RPSSeries(1000, tr.DurationMs()); len(sec) > 0 {
		mn, _ := stats.Min(sec)
		mx, _ := stats.Max(sec)
		mean, _ := stats.Mean(sec)
		fmt.Fprintf(w, "per-second RPS: min %.1f mean %.1f max %.1f\n", mn, mean, mx)
	}
	if gaps := tr.InterArrivalsMs(); len(gaps) > 0 {
		mean, _ := stats.Mean(gaps)
		p99, _ := stats.Percentile(gaps, 99)
		fmt.Fprintf(w, "inter-arrival: mean %.2f ms, p99 %.2f ms\n", mean, p99)
	}
}

func trainCmd(fs *flag.FlagSet, e *env) func() error {
	e.platformFlags(fs, false)
	paper := fs.Bool("paper", false, "train the paper's 5x128 architecture (slow)")
	save := fs.String("save", "", "directory to write the trained models to")
	return func() error {
		p := e.platform(*paper)
		if err := e.experiments(p, []string{"fig6", "fig7", "fig8"}); err != nil || *save == "" {
			return err
		}
		if err := os.MkdirAll(*save, 0o755); err != nil {
			return err
		}
		for _, m := range []struct {
			file string
			save func(io.Writer) error
		}{{"latency_classifier.gob", p.Classifier.Save}, {"error_predictor.gob", p.ErrPred.Save}} {
			path := filepath.Join(*save, m.file)
			if err := writeFile(path, m.save); err != nil {
				return err
			}
			fmt.Fprintf(e.stderr, "wrote %s\n", path)
		}
		return nil
	}
}

// routerFlag registers -router; an unknown name fails the parse.
func routerFlag(fs *flag.FlagSet, router *string) {
	*router = "power-aware"
	fs.Func("router", "replica router: "+strings.Join(sim.RouterNames, ", ")+" (default power-aware)", func(s string) error {
		*router = s
		_, err := sim.RouterByName(s)
		return err
	})
}

// isSet reports whether the command line set flag name.
func isSet(fs *flag.FlagSet, name string) (set bool) {
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
