// Package lint implements the repo's determinism and concurrency lint suite:
// a small go/analysis-style framework plus four custom passes, compiled into
// the cmd/lint multichecker that gates every PR.
//
// The load-bearing invariant of this codebase is byte-identical routes and
// scenario output across identical seeds — that is what lets the golden-hash
// tests pin the paper's Figure 1 and availability numbers. The passes turn
// that contract (and the alloc-free kernel contract from PERF.md, and the rule
// that product code is what the system runs) from tribal knowledge into a
// build failure:
//
//   - mapiter: no map iteration in deterministic packages
//   - wallclock: no wall-clock time or global math/rand in node logic
//   - allocfree: no heap allocation inside //lint:allocfree hot paths
//   - testonly: no exported declaration in internal/ that only tests reach,
//     unless waived by //lint:testonly <reason>
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic, analysistest-style fixtures) but is built on
// the standard library alone: packages are parsed with go/parser and
// type-checked with go/types against compiler export data produced by
// `go list -export`, so the suite needs no dependencies beyond the Go
// toolchain itself.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one lint pass.
type Analyzer struct {
	// Name identifies the pass in diagnostics and in the multichecker.
	Name string
	// Doc is the one-paragraph description printed by cmd/lint -help.
	Doc string
	// Run applies the pass to a single package.
	Run func(*Pass) error
}

// A Pass provides one analyzer run with a single type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers a diagnostic. The driver fills it in.
	Report func(Diagnostic)
	// Reached reports whether non-test code anywhere in the module reaches
	// a declaration (see Testonly). The driver computes it once per run.
	Reached func(types.Object) bool

	directives map[*ast.File]map[int]directive
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ---------------------------------------------------------------------------
// Lint directives.
//
// The suite understands three comment annotations, documented in
// CONTRIBUTING.md:
//
//	//lint:allocfree            on a function declaration
//	//lint:allowalloc <reason>  on (or just above) a line inside an
//	                            allocfree function
//	//lint:testonly <reason>    on (or just above) an exported declaration
//	                            that another package's tests need
// ---------------------------------------------------------------------------

// directive is one parsed //lint: comment.
type directive struct {
	verb   string // e.g. "allowalloc"
	reason string // trailing free text; some verbs require it
	pos    token.Pos
}

const directivePrefix = "//lint:"

// parseDirective parses a single comment into a directive, if it is one.
func parseDirective(c *ast.Comment) (directive, bool) {
	text := c.Text
	if !strings.HasPrefix(text, directivePrefix) {
		return directive{}, false
	}
	rest := strings.TrimPrefix(text, directivePrefix)
	verb, reason, _ := strings.Cut(rest, " ")
	return directive{verb: verb, reason: strings.TrimSpace(reason), pos: c.Pos()}, true
}

// fileDirectives returns the //lint: directives of f keyed by line number,
// computed once per file per pass.
func (p *Pass) fileDirectives(f *ast.File) map[int]directive {
	if p.directives == nil {
		p.directives = make(map[*ast.File]map[int]directive)
	}
	if m, ok := p.directives[f]; ok {
		return m
	}
	m := make(map[int]directive)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if d, ok := parseDirective(c); ok {
				m[p.Fset.Position(c.Pos()).Line] = d
			}
		}
	}
	p.directives[f] = m
	return m
}

// directiveFor returns the directive with the given verb attached to node —
// written either on the node's first line or on the line immediately above.
func (p *Pass) directiveFor(f *ast.File, node ast.Node, verb string) (directive, bool) {
	m := p.fileDirectives(f)
	line := p.Fset.Position(node.Pos()).Line
	for _, l := range [2]int{line, line - 1} {
		if d, ok := m[l]; ok && d.verb == verb {
			return d, true
		}
	}
	return directive{}, false
}

// pkgScoped reports whether the pass's package is in scope, matching the
// package path exactly against each entry.
func pkgScoped(pkgPath string, scope []string) bool {
	for _, s := range scope {
		if pkgPath == s {
			return true
		}
	}
	return false
}

// isPkgSelector reports whether sel selects name out of the package with the
// given import path (e.g. time.Now), resolving through the type info.
func isPkgSelector(info *types.Info, sel *ast.SelectorExpr, pkgPath string) (name string, ok bool) {
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", false
	}
	pn, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg || pn.Imported().Path() != pkgPath {
		return "", false
	}
	return sel.Sel.Name, true
}
