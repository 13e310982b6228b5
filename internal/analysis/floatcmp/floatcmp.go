// Package floatcmp bans direct == and != on floating-point operands in
// the numeric packages (signal, stats, linalg by default). The kernel
// reconstruction and leakage statistics (Equ. 5/8/9) accumulate rounding
// error by construction, so an exact comparison is a latent bug — the
// WelchT degenerate-variance case fixed in this module is the canonical
// example. Comparisons against literal zero used as cheap "is it exactly
// the sentinel" guards must either move to the stats.ApproxEqual helper
// or carry an //emsim:ignore floatcmp with a reason explaining why
// exactness is intended.
package floatcmp

import (
	"go/ast"
	"go/token"
	"go/types"

	"emsim/internal/analysis"
)

// DefaultPaths are the packages checked by the stock analyzer: the ones
// doing the paper's floating-point arithmetic.
var DefaultPaths = []string{
	"emsim/internal/signal",
	"emsim/internal/stats",
	"emsim/internal/linalg",
}

// Analyzer checks the default package set.
var Analyzer = New(DefaultPaths...)

// New returns a floatcmp analyzer restricted to the given import paths
// (used by tests to point it at fixture packages).
func New(paths ...string) *analysis.Analyzer {
	scope := map[string]bool{}
	for _, p := range paths {
		scope[p] = true
	}
	return &analysis.Analyzer{
		Name: "floatcmp",
		Doc:  "ban direct ==/!= on floating-point values in numeric packages",
		Run: func(pass *analysis.Pass) error {
			if !scope[pass.Pkg.Path()] {
				return nil
			}
			return run(pass)
		},
	}
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if !isFloat(pass.TypesInfo.Types[be.X].Type) && !isFloat(pass.TypesInfo.Types[be.Y].Type) {
				return true
			}
			pass.Reportf(be.OpPos, "direct %s on floating-point values; use a tolerance helper (stats.ApproxEqual) or suppress with a reason", be.Op)
			return true
		})
	}
	return nil
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}
