// Package ctxflow checks cancellation hygiene in the packages that
// thread context.Context down to blocking work (core, serve, defend,
// par):
//
//   - a declared context.Context parameter must actually be used in the
//     function body — a dropped ctx silently severs the caller's
//     cancellation and deadline
//   - context.Background() and context.TODO() do not belong in library
//     code; they root a new, uncancellable tree. Blocking convenience
//     wrappers that deliberately do this carry an //emsim:ignore with
//     the reason
//   - a go statement must hand the goroutine a lifecycle: a
//     context.Context argument or capture, or a sync.WaitGroup
//     join/handshake. Same-package callees are inspected; a goroutine
//     with neither can outlive every caller and leak
package ctxflow

import (
	"go/ast"
	"go/types"

	"emsim/internal/analysis"
)

// DefaultPaths are the cancellation-threading packages the stock
// analyzer watches.
var DefaultPaths = []string{
	"emsim/internal/core",
	"emsim/internal/serve",
	"emsim/internal/defend",
	"emsim/internal/par",
}

// Analyzer checks the default package set.
var Analyzer = New(DefaultPaths...)

// New returns a ctxflow analyzer restricted to the given import paths.
func New(paths ...string) *analysis.Analyzer {
	scope := map[string]bool{}
	for _, p := range paths {
		scope[p] = true
	}
	return &analysis.Analyzer{
		Name: "ctxflow",
		Doc:  "flag dropped contexts, context.Background in library code, and goroutines without a cancellation or join path",
		Run: func(pass *analysis.Pass) error {
			if !scope[pass.Pkg.Path()] {
				return nil
			}
			c := &checker{pass: pass, decls: map[*types.Func]*ast.FuncDecl{}}
			for _, f := range pass.Files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok {
						if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
							c.decls[obj] = fd
						}
					}
				}
			}
			for _, f := range pass.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.FuncDecl:
						c.checkParams(n)
					case *ast.CallExpr:
						c.checkBackground(n)
					case *ast.GoStmt:
						c.checkGo(n)
					}
					return true
				})
			}
			return nil
		},
	}
}

type checker struct {
	pass  *analysis.Pass
	decls map[*types.Func]*ast.FuncDecl
}

// checkParams flags declared context.Context parameters the body never
// reads.
func (c *checker) checkParams(fd *ast.FuncDecl) {
	if fd.Body == nil || fd.Type.Params == nil {
		return
	}
	info := c.pass.TypesInfo
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			obj := info.Defs[name]
			if obj == nil || !isContextType(obj.Type()) {
				continue
			}
			used := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
					used = true
				}
				return !used
			})
			if !used {
				c.pass.Reportf(name.Pos(), "context parameter %s is never used in %s; thread it through or remove it", name.Name, fd.Name.Name)
			}
		}
	}
}

// checkBackground flags context.Background and context.TODO calls.
func (c *checker) checkBackground(call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return
	}
	if name := fn.Name(); name == "Background" || name == "TODO" {
		c.pass.Reportf(call.Pos(), "context.%s in library code severs cancellation; accept a caller context", name)
	}
}

// checkGo flags goroutines launched with no visible lifecycle.
func (c *checker) checkGo(stmt *ast.GoStmt) {
	info := c.pass.TypesInfo
	call := stmt.Call

	// A context argument hands the goroutine its lifecycle.
	for _, arg := range call.Args {
		if tv, ok := info.Types[arg]; ok && isContextType(tv.Type) {
			return
		}
	}

	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		if hasLifecycle(info, fun.Body) {
			return
		}
	default:
		if fn, _ := analysis.ResolveCallee(info, ast.Unparen(call.Fun)); fn != nil {
			if decl, ok := c.decls[fn]; ok && decl.Body != nil {
				if hasLifecycle(info, decl.Body) {
					return
				}
			}
		}
	}
	c.pass.Reportf(stmt.Pos(), "goroutine launched without a cancellation or join path")
}

// hasLifecycle reports whether the body touches a context.Context or a
// sync.WaitGroup — either gives the goroutine a way to be cancelled or
// joined.
func hasLifecycle(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		expr, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if tv, ok := info.Types[expr]; ok && tv.Type != nil {
			if isContextType(tv.Type) || isWaitGroup(tv.Type) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isWaitGroup reports whether t is sync.WaitGroup (possibly behind a
// pointer).
func isWaitGroup(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}
