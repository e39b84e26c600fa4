package harness

import (
	"fmt"

	"gemini/internal/telemetry"
)

// SLO attainment view over a sampled cluster timeline: the per-window
// slo_violations and drops columns replayed through the multi-window
// error-budget tracker, answering the question the paper's controller is
// judged on — did the run hold the deadline at the target percentile, and
// if not, when did the budget burn. Because the tracker is fed from the
// deterministically-merged rows, the report is byte-identical at any
// GOMAXPROCS, like every other harness table.

// SLOReport folds a sampled cell run into the burn-rate table. targetPct is the
// SLO target percentile (0 selects the tracker default, 99). The tracker's
// buckets are aligned to whole seconds regardless of the sample interval, so
// the default 1 s / 10 s / 60 s windows read the same as the live trackers'.
func SLOReport(tlr *CellResult, targetPct float64) *Report {
	rows := tlr.Series.Rows()
	tracker := telemetry.NewSLOTracker(telemetry.SLOConfig{
		DeadlineMs: tlr.BudgetMs,
		TargetPct:  targetPct,
	})
	tracker.FeedRows(rows)

	endMs := 0.0
	if len(rows) > 0 {
		endMs = rows[len(rows)-1].TimeMs
	}
	snap := tracker.Snapshot(endMs, 0)

	rep := &Report{
		Title:  "SLO attainment (error-budget burn view)",
		Header: []string{"window ms", "good", "bad", "bad %", "burn rate"},
	}
	cfg := snap.Config
	rep.Note("deadline %.1f ms at p%s: error budget %.2f%% of events; burn rate = bad fraction / budget (1.0 consumes the budget exactly as provisioned)",
		cfg.DeadlineMs, trimFloat(cfg.TargetPct), cfg.BudgetFraction()*100)
	for _, w := range snap.Windows {
		rep.AddRow(
			trimFloat(w.WindowMs),
			fmt.Sprintf("%d", w.Good),
			fmt.Sprintf("%d", w.Bad),
			f2(w.BadFraction*100),
			f2(w.BurnRate),
		)
	}
	state := "within budget"
	switch {
	case snap.FastBurn:
		state = fmt.Sprintf("FAST BURN (>= %s× over the %s ms window)",
			trimFloat(cfg.FastBurnThreshold), trimFloat(cfg.WindowsMs[0]))
	case snap.SlowBurn:
		state = fmt.Sprintf("slow burn (>= %s× over the %s ms window)",
			trimFloat(cfg.SlowBurnThreshold), trimFloat(cfg.WindowsMs[len(cfg.WindowsMs)-1]))
	}
	rep.Note("run totals: %d good, %d bad, budget remaining %.1f%% — %s",
		snap.Good, snap.Bad, snap.BudgetRemaining*100, state)
	return rep
}
