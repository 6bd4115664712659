package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// RunFixture type-checks the fixture directory as a single package with the
// given import path (so package-scoped analyzers can be pointed in or out of
// scope), and each subdirectory as the package importPath/<name>, runs the
// analyzer over all of them through the driver, and compares its
// diagnostics against the fixtures' `// want "regexp"` comments,
// analysistest-style: every diagnostic must match a want on its line, and
// every want must be matched by exactly one diagnostic.
func RunFixture(t *testing.T, a *Analyzer, dir, importPath string) {
	t.Helper()
	pkgs := loadFixture(t, dir, importPath)
	var files []*ast.File
	for _, p := range pkgs {
		files = append(files, p.Files...)
	}
	matchExpectations(t, pkgs[0].Fset, files, runFixture(t, a, pkgs, pkgs))
}

// RunFixtureNoDiagnostics runs the analyzer over the fixture under an
// alternate import path and requires that it stays silent, `// want`
// comments notwithstanding — the negative half of package-scope checks.
func RunFixtureNoDiagnostics(t *testing.T, a *Analyzer, dir, importPath string) {
	t.Helper()
	pkgs := loadFixture(t, dir, importPath)
	for _, d := range runFixture(t, a, pkgs, pkgs) {
		t.Errorf("%s: unexpected diagnostic under out-of-scope path %s: %s", pkgs[0].Fset.Position(d.Pos), importPath, d.Message)
	}
}

// runFixture runs the analyzer over pkgs, with module as the rest of the
// fixture's world, and returns its diagnostics.
func runFixture(t *testing.T, a *Analyzer, pkgs, module []*Package) []Diagnostic {
	t.Helper()
	findings, err := Run([]*Analyzer{a}, pkgs, module)
	if err != nil {
		t.Fatal(err)
	}
	var got []Diagnostic
	for _, f := range findings {
		got = append(got, f.Diagnostic)
	}
	return got
}

// loadFixture parses and type-checks the fixture package in dir and then
// one package per subdirectory, which may import it by its path.
func loadFixture(t *testing.T, dir, importPath string) []*Package {
	t.Helper()
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	pkgs := []*Package{checkFixture(t, fset, dir, importPath, nil)}
	for _, e := range entries {
		if e.IsDir() {
			pkgs = append(pkgs, checkFixture(t, fset, filepath.Join(dir, e.Name()), importPath+"/"+e.Name(), pkgs))
		}
	}
	return pkgs
}

// fixtureImporter resolves the fixture's own packages from source and every
// other import from export data.
type fixtureImporter struct {
	local []*Package
	types.Importer
}

func (imp fixtureImporter) Import(path string) (*types.Package, error) {
	for _, p := range imp.local {
		if p.Path == path {
			return p.Pkg, nil
		}
	}
	return imp.Importer.Import(path)
}

// checkFixture parses the .go files of dir and type-checks them as package
// importPath, resolving imports of the local packages from source and the
// rest through export data listed by the go tool (standard library and
// module packages alike).
func checkFixture(t *testing.T, fset *token.FileSet, dir, importPath string, local []*Package) *Package {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parsing fixture: %v", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}

	seen := map[string]bool{"unsafe": true}
	for _, p := range local {
		seen[p.Path] = true
	}
	var imports []string
	for _, f := range files {
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil || seen[p] {
				continue
			}
			seen[p] = true
			imports = append(imports, p)
		}
	}
	exports := map[string]string{}
	if len(imports) > 0 {
		listed, err := goList(".", imports)
		if err != nil {
			t.Fatalf("listing fixture imports: %v", err)
		}
		for _, p := range listed {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	info := newTypesInfo()
	conf := types.Config{Importer: fixtureImporter{local, exportImporter(fset, exports)}}
	pkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking fixture: %v", err)
	}
	return &Package{Path: importPath, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}
}

// wantRe matches the payload of a // want comment.
var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

// expectation is one // want entry.
type expectation struct {
	file    string
	line    int
	rx      *regexp.Regexp
	matched bool
}

// parseWants extracts the expectations from the fixtures' comments.
func parseWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range splitQuoted(t, m[1], pos) {
					rx, err := regexp.Compile(q)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, q, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, rx: rx})
				}
			}
		}
	}
	return wants
}

// splitQuoted parses a sequence of Go-quoted strings ("..." or `...`).
func splitQuoted(t *testing.T, s string, pos token.Position) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		prefix, err := strconv.QuotedPrefix(s)
		if err != nil {
			t.Fatalf("%s: malformed want payload %q: %v", pos, s, err)
		}
		q, err := strconv.Unquote(prefix)
		if err != nil {
			t.Fatalf("%s: malformed want string %q: %v", pos, prefix, err)
		}
		out = append(out, q)
		s = strings.TrimSpace(s[len(prefix):])
	}
	return out
}

// matchExpectations pairs diagnostics with wants one-to-one and fails the
// test on any unmatched diagnostic or leftover want.
func matchExpectations(t *testing.T, fset *token.FileSet, files []*ast.File, got []Diagnostic) {
	t.Helper()
	wants := parseWants(t, fset, files)
	sort.SliceStable(got, func(i, j int) bool { return got[i].Pos < got[j].Pos })
	for _, d := range got {
		pos := fset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if w.matched || w.file != pos.Filename || w.line != pos.Line {
				continue
			}
			if w.rx.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.rx)
		}
	}
}
