package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
)

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	Path      string
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Error      *struct{ Err string }
}

// listFields keeps `go list -json` output small and its schema pinned.
const listFields = "ImportPath,Dir,Export,GoFiles,DepOnly,Error"

// goList runs `go list -e -export -deps -json` on the patterns in dir and
// decodes the package stream.
func goList(dir string, patterns []string) ([]listedPkg, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json=" + listFields, "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter resolves imports from the compiler export data files that
// `go list -export` reports, which works without network access and covers
// the standard library and module-local packages alike.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(f)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// newTypesInfo allocates the types.Info maps every pass needs.
func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}

// Load parses and type-checks the packages matching patterns, resolved
// relative to dir (the module root). Test files are excluded: the
// determinism contract binds production code, while tests are free to use
// wall clocks and unordered iteration.
func Load(dir string, patterns []string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	var targets []listedPkg
	for _, p := range listed {
		if p.Error != nil && !p.DepOnly {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var out []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, gf := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, gf), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := newTypesInfo()
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(t.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %v", t.ImportPath, err)
		}
		out = append(out, &Package{
			Path:      t.ImportPath,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
		})
	}
	return out, nil
}

// A Finding is one diagnostic attributed to the analyzer that produced it.
type Finding struct {
	Diagnostic
	Analyzer *Analyzer
	Fset     *token.FileSet
}

// Run applies every analyzer to every package in pkgs and returns the
// findings sorted by file position (then analyzer name, for a stable
// report). module is every package of the module, pkgs among them: what
// non-test code reaches is read from all of it.
func Run(analyzers []*Analyzer, pkgs, module []*Package) ([]Finding, error) {
	reached := reachedFrom(module)
	var all []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Pkg,
				TypesInfo: pkg.TypesInfo,
				Reached:   reached,
			}
			pass.Report = func(d Diagnostic) {
				all = append(all, Finding{Diagnostic: d, Analyzer: a, Fset: pkg.Fset})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %v", a.Name, pkg.Path, err)
			}
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		pi, pj := all[i].Fset.Position(all[i].Pos), all[j].Fset.Position(all[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return all[i].Analyzer.Name < all[j].Analyzer.Name
	})
	return all, nil
}

// DefaultAnalyzers is the pass set cmd/lint runs.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{Mapiter, Wallclock, Allocfree, Testonly}
}

// Main is the cmd/lint entry point: load patterns (default ./...), run the
// default analyzer set, print findings, and return the process exit code.
func Main(dir string, patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	module, err := Load(dir, []string{"./..."})
	pkgs := module
	if err == nil && !slices.Equal(patterns, []string{"./..."}) {
		pkgs, err = Load(dir, patterns)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	findings, err := Run(DefaultAnalyzers(), pkgs, module)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	for _, f := range findings {
		fmt.Printf("%s: %s [%s]\n", f.Fset.Position(f.Pos), f.Message, f.Analyzer.Name)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "lint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
