package lint

import (
	"fmt"
	"sort"

	"gemini/internal/lint/analysis"
	"gemini/internal/lint/load"
)

// StaleAllowName is the pseudo-analyzer under which the stale-suppression
// audit reports. It is not in All() — it has no standalone Run; RunPackage
// emits it after the real analyzers have consumed their suppressions.
const StaleAllowName = "staleallow"

// RunModule is the vet suite's one driver: it loads each import path through
// l and runs the full suite over it. cmd/geminivet and TestRepoIsClean both
// call it, so the command line and the tier-1 test cannot disagree. Positions
// resolve against l.Fset().
func RunModule(l *load.Loader, paths []string, report func(analysis.Diagnostic)) error {
	for _, ip := range paths {
		pkg, err := l.Load(ip)
		if err != nil {
			return err
		}
		if err := RunPackage(l, pkg, All(), report); err != nil {
			return fmt.Errorf("%s: %w", ip, err)
		}
	}
	return nil
}

// RunPackage runs analyzers over one package with a single shared
// //gemini:allow index, then audits the suppressions: an allow whose check
// is owned by an analyzer that ran but which suppressed nothing is stale and
// reported; an allow naming no known check, or missing its `-- reason`, is
// reported unconditionally. The loader that produced pkg answers the
// analyzers' questions about the module's other packages.
func RunPackage(l *load.Loader, pkg *load.Package, analyzers []*analysis.Analyzer, report func(analysis.Diagnostic)) error {
	shared := scanAllows(pkg.Fset, pkg.Files)
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
		pass := &analysis.Pass{
			Analyzer:    a,
			Fset:        pkg.Fset,
			Files:       pkg.Files,
			Pkg:         pkg.Pkg,
			TypesInfo:   pkg.TypesInfo,
			Report:      report,
			ModuleFiles: l.ModuleFiles,
			SuiteAllow:  shared,
		}
		if err := a.Run(pass); err != nil {
			return err
		}
	}
	auditAllows(shared, ran, report)
	return nil
}

// auditAllows reports the suite-level directive errors left in the shared
// index after every analyzer ran.
func auditAllows(idx allowIndex, ran map[string]bool, report func(analysis.Diagnostic)) {
	// Deterministic order: sort entries by position.
	var entries []*allowEntry
	for _, lines := range idx {
		for _, es := range lines {
			entries = append(entries, es...)
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].pos < entries[j].pos })
	for _, e := range entries {
		owner, known := checkOwner[e.check]
		var msg string
		switch {
		case !known:
			msg = "//gemini:allow names unknown check \"" + e.check +
				"\" (known checks are listed in CONTRIBUTING.md)"
		case e.reason == "":
			msg = "//gemini:allow " + e.check + " has no `-- reason`: every suppression must say why it is sound"
		case ran[owner] && !e.used:
			msg = "stale //gemini:allow " + e.check + ": the " + owner +
				" analyzer reports nothing here — remove the suppression"
		default:
			continue
		}
		report(analysis.Diagnostic{Pos: e.pos, Analyzer: StaleAllowName, Message: msg})
	}
}
