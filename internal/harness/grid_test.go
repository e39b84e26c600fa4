package harness

import (
	"runtime"
	"strings"
	"testing"
)

// sameAtGOMAXPROCS holds each report to the grids' contract: the worker
// count is GOMAXPROCS and no output depends on it. Each run is a subtest that
// renders its report at GOMAXPROCS 1 and 3 and compares the strings.
func sameAtGOMAXPROCS(t *testing.T, runs map[string]func(*testing.T) string) {
	t.Helper()
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			at := func(procs int) string {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				return run(t)
			}
			want := at(1)
			if want == "" {
				t.Fatal("empty report")
			}
			if got := at(3); got != want {
				t.Errorf("report differs between GOMAXPROCS 1 and 3\n--- 1 ---\n%s\n--- 3 ---\n%s", want, got)
			}
		})
	}
}

// experiments maps each named experiment to a run that renders its report.
func experiments(p *Platform, names []string) map[string]func(*testing.T) string {
	runs := map[string]func(*testing.T) string{}
	for _, name := range names {
		runs[name] = func(t *testing.T) string {
			r, err := NewExperimentSet(p, 0.02).Run(name)
			if err != nil {
				t.Fatal(err)
			}
			return r.String()
		}
	}
	return runs
}

// TestParallelSweepMatchesSerial is the engine's core guarantee: fig10
// exercises the (rps, policy) grid, fig12 the (trace, policy) grid.
func TestParallelSweepMatchesSerial(t *testing.T) {
	sameAtGOMAXPROCS(t, experiments(plat(t), []string{"fig10", "fig12"}))
}

// TestParallelAblationsMatchSerial covers every ablation and extension: the
// budget sweep's left-out baselines, the cache extension's rewritten
// workload and the aggregate's shared shard workloads.
func TestParallelAblationsMatchSerial(t *testing.T) {
	p := plat(t)
	var names []string
	for _, name := range NewExperimentSet(p, 1).Names() {
		if strings.HasPrefix(name, "ablation-") || strings.HasPrefix(name, "extension-") {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		t.Fatal("no ablation or extension experiments")
	}
	sameAtGOMAXPROCS(t, experiments(p, names))
}

// TestClusterReportWorkersIdentical: the multi-core cluster sweep shards its
// cores over GOMAXPROCS workers and prints the same report for any count.
func TestClusterReportWorkersIdentical(t *testing.T) {
	p := plat(t)
	sameAtGOMAXPROCS(t, map[string]func(*testing.T) string{
		"cluster": func(*testing.T) string { return p.ClusterReport(4, 40, 3000).String() },
	})
}

// TestGridsIndependentOfGOMAXPROCS extends the contract to the sampled cell,
// whose summary, exposition and timeline all must match.
func TestGridsIndependentOfGOMAXPROCS(t *testing.T) {
	p := plat(t)
	sameAtGOMAXPROCS(t, map[string]func(*testing.T) string{
		"cell": func(t *testing.T) string {
			cr, err := p.CellReport(TimelineSpec{Shards: 2, Replicas: 2, CapW: 14, DurationMs: 2000, SampleIntervalMs: 100})
			if err != nil {
				t.Fatal(err)
			}
			return cr.Summary.String() + cr.Exposition + cr.Timeline.String()
		},
	})
}
