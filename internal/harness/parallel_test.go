package harness

import (
	"sync/atomic"
	"testing"

	"gemini/internal/par"
)

func TestGridRunCoversAllJobs(t *testing.T) {
	for _, workers := range []int{1, 3, 8, 100} {
		n := 17
		var done [17]atomic.Int32
		par.Run(workers, n, func(i int) { done[i].Add(1) })
		for i := range done {
			if got := done[i].Load(); got != 1 {
				t.Errorf("workers=%d: job %d ran %d times", workers, i, got)
			}
		}
	}
	par.Run(4, 0, func(int) { t.Error("job ran for n=0") })
}

// TestParallelSweepMatchesSerial is the engine's core guarantee: the worker
// count must not change a single byte of any report. fig10 exercises the
// (rps, policy) sweep grid, fig12 the (trace, policy) grid.
func TestParallelSweepMatchesSerial(t *testing.T) {
	p := plat(t)
	for _, name := range []string{"fig10", "fig12"} {
		serial := NewExperimentSet(p, 0.02)
		parallel := NewExperimentSet(p, 0.02)
		parallel.Workers = 4

		want, err := serial.Run(name)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		got, err := parallel.Run(name)
		if err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: parallel report differs from serial\n--- serial ---\n%s\n--- parallel ---\n%s",
				name, want.String(), got.String())
		}
	}
}

// TestParallelAblationsMatchSerial pins the variant-cell runner: ablation and
// extension grids must be identical for any worker count, including the
// budget sweep's hidden per-budget baselines and the cache extension's
// workload rewriting.
func TestParallelAblationsMatchSerial(t *testing.T) {
	p := plat(t)
	type runner func(workers int) *Report
	cases := map[string]runner{
		"boost": func(w int) *Report {
			r, _ := p.AblationBoostWorkers(80, 6_000, w)
			return r
		},
		"budget": func(w int) *Report {
			r, _ := p.AblationBudgetWorkers(80, 6_000, w)
			return r
		},
		"governors": func(w int) *Report {
			r, _ := p.ExtensionGovernorsWorkers(80, 6_000, w)
			return r
		},
		"cache": func(w int) *Report {
			r, _ := p.ExtensionCacheWorkers(80, 6_000, 64, w)
			return r
		},
		"aggregate": func(w int) *Report {
			r, _ := p.ExtensionAggregateWorkers(3, 40, 6_000, w)
			return r
		},
	}
	for name, run := range cases {
		want := run(1).String()
		if got := run(4).String(); got != want {
			t.Errorf("%s: parallel report differs from serial\n--- serial ---\n%s\n--- parallel ---\n%s",
				name, want, got)
		}
	}
}

// TestClusterReportWorkersIdentical pins the -workers contract at the harness
// level: the multi-core cluster sweep prints the same report for any worker
// count.
func TestClusterReportWorkersIdentical(t *testing.T) {
	p := plat(t)
	serial := p.ClusterReport(4, 1, 40, 3000).String()
	sharded := p.ClusterReport(4, 4, 40, 3000).String()
	if serial != sharded {
		t.Fatalf("cluster report differs between serial and sharded runs:\n--- serial\n%s\n--- sharded\n%s", serial, sharded)
	}
	if serial == "" {
		t.Fatal("empty cluster report")
	}
}
