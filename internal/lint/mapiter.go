package lint

import (
	"go/ast"
	"go/types"
)

// DeterministicPackages are the packages whose output feeds the
// identical-seed golden hashes: every packet send order, route table, and
// scenario sample in them must be reproducible run to run. Map iteration
// order is randomized by the runtime, so no code in these packages ranges
// over a map.
var DeterministicPackages = []string{
	"allpairs/internal/core",
	"allpairs/internal/lsdb",
	"allpairs/internal/membership",
	"allpairs/internal/wire",
	"allpairs/internal/probe",
	"allpairs/internal/emul",
	"allpairs/internal/simnet",
	"allpairs/internal/grid",
	"allpairs/internal/par",
}

// Mapiter flags every `range` over a map in deterministic packages, with no
// escape hatch. This is the analyzer form of a bug the coordinator once had:
// broadcasting (or otherwise emitting) while iterating a map made the
// simulated packet schedule differ between identically-seeded runs. Code that
// must walk a map ranges over slices.Sorted(maps.Keys(m)) instead, or keeps
// its table in a slice.
var Mapiter = &Analyzer{
	Name: "mapiter",
	Doc:  "flag range over a map in deterministic packages",
	Run:  runMapiter,
}

func runMapiter(pass *Pass) error {
	if !pkgScoped(pass.Pkg.Path(), DeterministicPackages) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			r, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if tv, ok := pass.TypesInfo.Types[r.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(r.Pos(), "range over map %s in deterministic package: iteration order is randomized; range over slices.Sorted(maps.Keys(m)) or keep the table in a slice", typeLabel(r.X))
				}
			}
			return true
		})
	}
	return nil
}

// typeLabel renders the ranged expression for the diagnostic.
func typeLabel(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return typeLabel(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return typeLabel(e.Fun) + "(...)"
	default:
		return "expression"
	}
}
