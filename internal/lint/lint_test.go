package lint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gemini/internal/lint"
	"gemini/internal/lint/analysis"
	"gemini/internal/lint/linttest"
)

func TestNoDeterminismFixture(t *testing.T) {
	l := linttest.MustLoader(t)
	linttest.Run(t, l, linttest.Fixture(t, "nodeterminism"),
		"fixture/internal/sim", lint.NoDeterminism)
}

func TestNoDeterminismRawSourceIsSimScoped(t *testing.T) {
	l := linttest.MustLoader(t)
	// Same deterministic-package gate, but not internal/sim: seeded
	// rand.New(rand.NewSource(...)) stays the sanctioned idiom there, so the
	// fixture has no want comments.
	linttest.Run(t, l, linttest.Fixture(t, "nodeterminism_harness"),
		"fixture/internal/harness", lint.NoDeterminism)
}

func TestNoDeterminismTelemetryInScope(t *testing.T) {
	l := linttest.MustLoader(t)
	// internal/telemetry joined the deterministic contract with the SLO
	// tracker: explicit-nowMs APIs in, wall clocks out.
	linttest.Run(t, l, linttest.Fixture(t, "nodeterminism_telemetry"),
		"fixture/internal/telemetry", lint.NoDeterminism)
}

func TestNoDeterminismExemptsLoadGenerator(t *testing.T) {
	l := linttest.MustLoader(t)
	// cmd/geminiload measures real latencies by design: wall clocks are the
	// point there, so the fixture has no want comments.
	linttest.Run(t, l, linttest.Fixture(t, "nodeterminism_cmdload"),
		"fixture/cmd/geminiload", lint.NoDeterminism)
}

func TestNoDeterminismIgnoresOtherPackages(t *testing.T) {
	l := linttest.MustLoader(t)
	// The fixture has wall-clock and global-rand uses but no want comments:
	// under a non-deterministic import path the analyzer must stay silent.
	linttest.Run(t, l, linttest.Fixture(t, "nodeterminism_otherpkg"),
		"fixture/server", lint.NoDeterminism)
}

func TestHotpathFixture(t *testing.T) {
	l := linttest.MustLoader(t)
	linttest.Run(t, l, linttest.Fixture(t, "hotpath"),
		"fixture/hotpath", lint.Hotpath)
}

func TestUnitSafetyFixture(t *testing.T) {
	l := linttest.MustLoader(t)
	linttest.Run(t, l, linttest.Fixture(t, "unitsafety"),
		"fixture/unitsafety", lint.UnitSafety)
}

func TestFreqDomainFixture(t *testing.T) {
	l := linttest.MustLoader(t)
	linttest.Run(t, l, linttest.Fixture(t, "freqdomain"),
		"fixture/freqdomain", lint.FreqDomain)
}

func TestLockSafetyFixture(t *testing.T) {
	l := linttest.MustLoader(t)
	linttest.Run(t, l, linttest.Fixture(t, "locksafety"),
		"fixture/internal/server", lint.LockSafety)
}

func TestLockSafetyIgnoresOtherPackages(t *testing.T) {
	l := linttest.MustLoader(t)
	// Same source, but outside internal/server and internal/telemetry: the
	// lock contract binds only the live serving path, so every want comment
	// would go unmatched — run through a bare pass and require silence.
	pkg, err := l.CheckFiles("fixture/internal/sim",
		linttest.Fixture(t, "locksafety"), fixtureFiles(t, "locksafety"))
	if err != nil {
		t.Fatal(err)
	}
	var diags []analysis.Diagnostic
	err = lint.RunPackage(l, pkg, []*analysis.Analyzer{lint.LockSafety},
		func(d analysis.Diagnostic) { diags = append(diags, d) })
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if d.Analyzer == lint.StaleAllowName {
			continue // out-of-scope run leaves the fixture's allow unconsumed
		}
		t.Errorf("locksafety fired outside its package scope: %s", d.Message)
	}
}

func TestMetricsConvFixture(t *testing.T) {
	l := linttest.MustLoader(t)
	linttest.Run(t, l, linttest.Fixture(t, "metricsconv"),
		"fixture/server", lint.MetricsConv)
}

func TestStaleAllowFixture(t *testing.T) {
	l := linttest.MustLoader(t)
	linttest.Run(t, l, linttest.Fixture(t, "staleallow"),
		"fixture/server", lint.UnitSafety)
}

// fixtureFiles lists the .go sources of a testdata fixture.
func fixtureFiles(t *testing.T, name string) []string {
	t.Helper()
	dir := linttest.Fixture(t, name)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	return files
}

// TestRepoIsClean runs the full geminivet suite (all six analyzers plus the
// stale-suppression audit) over every package of this module through
// lint.RunModule, the same call `go run ./cmd/geminivet ./...` makes, and
// requires zero diagnostics. A failure here names the offending lines
// directly.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module from source")
	}
	l := linttest.MustLoader(t)
	paths, err := l.ListPackages()
	if err != nil {
		t.Fatal(err)
	}
	var diags []string
	err = lint.RunModule(l, paths, func(d analysis.Diagnostic) {
		diags = append(diags, fmt.Sprintf("%s: %s [%s]", l.Fset().Position(d.Pos), d.Message, d.Analyzer))
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) > 0 {
		t.Errorf("geminivet found %d violation(s) in the repo:\n%s",
			len(diags), strings.Join(diags, "\n"))
	}
}
