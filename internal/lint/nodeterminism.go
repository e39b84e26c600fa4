package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"

	"gemini/internal/lint/analysis"
)

// NoDeterminism forbids nondeterminism sources in the packages behind the
// byte-identical serial-vs-parallel report contract (internal/sim,
// internal/policy, internal/harness, internal/telemetry — the SLO trackers
// and samplers take every timestamp explicitly, so wall clocks stay confined
// to cmd/ and internal/server): wall-clock reads (time.Now/Since/
// Until), the global math/rand source (seeded per-process, order-dependent
// under parallel runs), and map iteration that feeds order-sensitive output.
// Seeded rand.New(rand.NewSource(...)) generators remain the determinism
// idiom in policy and harness code — but inside internal/sim itself raw
// source construction is banned outside rng.go: every sim stream must come
// from PartitionedRNG so subsystems (workload, routing, sched) stay
// draw-isolated (a raw source reintroduces the shared-stream coupling the
// partition exists to prevent).
var NoDeterminism = &analysis.Analyzer{
	Name: "nodeterminism",
	Doc: "forbid time.Now, global math/rand, map-range-ordered output, and " +
		"raw rand sources outside internal/sim's rng.go in the deterministic " +
		"simulation packages",
	Run: runNoDeterminism,
}

// deterministicPkgs are the import-path fragments under the contract.
var deterministicPkgs = []string{
	"internal/sim",
	"internal/policy",
	"internal/harness",
	"internal/telemetry",
}

// bannedClock are wall-clock reads in package time.
var bannedClock = map[string]bool{"Now": true, "Since": true, "Until": true}

// bannedGlobalRand are the math/rand (and v2) top-level functions that draw
// from the process-global source.
var bannedGlobalRand = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
	// math/rand/v2 spellings.
	"N": true, "IntN": true, "Int32": true, "Int32N": true, "Int64N": true,
	"Uint": true, "UintN": true, "Uint32N": true, "Uint64N": true,
}

// bannedRawSource are the raw generator constructors (v1 and v2) banned
// inside internal/sim outside rng.go.
var bannedRawSource = map[string]bool{
	"NewSource": true,
	// math/rand/v2 source constructors.
	"NewPCG": true, "NewChaCha8": true,
}

func isDeterministicPkg(path string) bool {
	for _, frag := range deterministicPkgs {
		if matchesPkgFrag(path, frag) {
			return true
		}
	}
	return false
}

// isSimPkg gates the rawsource ban to internal/sim proper — policy and
// harness keep the plain seeded-generator idiom.
func isSimPkg(path string) bool {
	return matchesPkgFrag(path, "internal/sim")
}

func matchesPkgFrag(path, frag string) bool {
	return path == frag || strings.HasSuffix(path, "/"+frag) || strings.Contains(path, "/"+frag+"/")
}

func runNoDeterminism(pass *analysis.Pass) error {
	if !isDeterministicPkg(pass.Pkg.Path()) {
		return nil
	}
	allow := buildAllowIndex(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkDeterminismUse(pass, n.Sel, allow)
			case *ast.RangeStmt:
				checkMapRange(pass, n, allow)
			}
			return true
		})
	}
	return nil
}

// checkDeterminismUse reports id if it resolves to a banned function.
func checkDeterminismUse(pass *analysis.Pass, id *ast.Ident, allow allowIndex) {
	obj, ok := pass.TypesInfo.Uses[id]
	if !ok {
		return
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if bannedClock[fn.Name()] && !allow.allows(pass, id.Pos(), "walltime") {
			pass.Reportf(id.Pos(),
				"time.%s reads the wall clock: deterministic packages must take time from the simulator (sim.Now)",
				fn.Name())
		}
	case "math/rand", "math/rand/v2":
		// Only top-level functions use the global source; methods on
		// *rand.Rand carry an explicit seeded source and are fine.
		if fn.Type().(*types.Signature).Recv() == nil && bannedGlobalRand[fn.Name()] &&
			!allow.allows(pass, id.Pos(), "globalrand") {
			pass.Reportf(id.Pos(),
				"global %s.%s draws from the process-wide source: use rand.New(rand.NewSource(seed))",
				fn.Pkg().Path(), fn.Name())
		}
		// Inside internal/sim, raw source construction is reserved to rng.go:
		// everything else must take its stream from PartitionedRNG so the
		// workload/routing/sched subsystems stay draw-isolated.
		if fn.Type().(*types.Signature).Recv() == nil && bannedRawSource[fn.Name()] &&
			isSimPkg(pass.Pkg.Path()) &&
			filepath.Base(pass.Position(id.Pos()).Filename) != "rng.go" &&
			!allow.allows(pass, id.Pos(), "rawsource") {
			pass.Reportf(id.Pos(),
				"raw %s.%s in internal/sim: take a stream from PartitionedRNG (rng.go) so subsystem draws stay isolated",
				fn.Pkg().Path(), fn.Name())
		}
	}
}

// checkMapRange reports range-over-map loops whose body feeds
// order-sensitive sinks (appends, formatted output, writers, channel sends):
// Go's map iteration order is randomized, so any such loop breaks the
// byte-identical report contract unless the keys are sorted first.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt, allow allowIndex) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if allow.allows(pass, rng.Pos(), "maprange") {
		return
	}
	// The collect-then-sort idiom is the sanctioned fix: if the enclosing
	// function sorts after the loop, the append inside it is the first half
	// of that idiom, not a leak of map order.
	if sortCallAfter(pass, rng) {
		return
	}
	sink := ""
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			sink = "channel send"
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "append" {
					if _, isBuiltin := pass.TypesInfo.Uses[fun].(*types.Builtin); isBuiltin {
						sink = "append"
					}
				}
			case *ast.SelectorExpr:
				if obj, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
					if obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
						sink = "fmt." + obj.Name()
					} else if strings.HasPrefix(obj.Name(), "Write") {
						sink = obj.Name()
					}
				}
			}
		}
		return sink == ""
	})
	if sink != "" {
		pass.Reportf(rng.Pos(),
			"map iteration order is nondeterministic but the loop body emits ordered output (%s): sort the keys first",
			sink)
	}
}

// sortCallAfter reports whether the function enclosing rng calls into
// package sort or slices at a position after the range loop ends.
func sortCallAfter(pass *analysis.Pass, rng *ast.RangeStmt) bool {
	var enclosing *ast.FuncDecl
	for _, f := range pass.Files {
		if f.Pos() <= rng.Pos() && rng.Pos() <= f.End() {
			enclosing = analysis.FuncForPos(f, rng.Pos())
			break
		}
	}
	if enclosing == nil {
		return false
	}
	found := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rng.End() {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
				switch fn.Pkg().Path() {
				case "sort", "slices":
					found = true
				}
			}
		}
		return !found
	})
	return found
}
