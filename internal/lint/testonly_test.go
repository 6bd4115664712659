package lint

import (
	"slices"
	"testing"
)

func TestTestonly(t *testing.T) {
	RunFixture(t, Testonly, "testdata/testonly", "allpairs/internal/fixture")
}

// TestTestonlySubset lints each fixture package alone against the whole
// fixture's references, as `go run ./cmd/lint ./internal/grid` does against
// the module's: it must report exactly what the whole run reports there.
func TestTestonlySubset(t *testing.T) {
	pkgs := loadFixture(t, "testdata/testonly", "allpairs/internal/fixture")
	fset := pkgs[0].Fset
	report := func(got []Diagnostic) []string {
		var out []string
		for _, d := range got {
			out = append(out, fset.Position(d.Pos).String()+": "+d.Message)
		}
		return out
	}
	whole := report(runFixture(t, Testonly, pkgs, pkgs))
	var parts []string
	for _, p := range pkgs {
		parts = append(parts, report(runFixture(t, Testonly, []*Package{p}, pkgs))...)
	}
	if len(whole) == 0 || !slices.Equal(parts, whole) {
		t.Errorf("package by package:\n%q\nwhole fixture:\n%q", parts, whole)
	}
}
