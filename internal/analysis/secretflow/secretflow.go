// Package secretflow verifies the //emsim:ct constant-time contract: a
// function so annotated must not let secret data steer control flow or
// memory addressing, the properties EMSim's leakage assessments assume
// hold (or deliberately do not hold) in the software under test.
//
// Secrets enter through annotations: //emsim:secret <param> [param...]
// in a ct function's doc comment taints the named parameters, and a
// bare //emsim:secret on a struct field's doc comment taints that field
// module-wide. Inside a ct function the analyzer propagates taint
// intraprocedurally over assignments, ranges and copy, then flags:
//
//   - branch conditions (if, switch tags and case values) that depend
//     on secret data
//   - loop bounds (for conditions, range over secret slices/maps) that
//     depend on secret data
//   - slice/array/map accesses indexed by secret data — the classic
//     table-lookup leak
//   - secret data escaping to calls that are not themselves //emsim:ct
//     (math/bits is allowlisted as constant-time), with a sharper
//     message when the sink is fmt or log
//
// Taint is conservative: any expression computed from a secret operand
// is secret, and a call forwarding a secret argument returns secret
// data. Deliberate exceptions — the AES S-box lookups the leakage model
// depends on — are suppressed in place with //emsim:ignore secretflow
// <reason>, keeping every non-constant-time operation visible.
package secretflow

import (
	"go/ast"
	"go/types"

	"emsim/internal/analysis"
)

// Analyzer is the secretflow checker.
var Analyzer = &analysis.Analyzer{
	Name: "secretflow",
	Doc:  "verify that //emsim:ct functions keep //emsim:secret data out of control flow and memory indexing",
	Run:  run,
}

// allowPkgs are standard-library packages whose functions are
// constant-time on all supported targets.
var allowPkgs = map[string]bool{
	"math/bits": true,
}

// logPkgs are sinks that persist or print their arguments; a secret
// reaching one is reported with a sharper message.
var logPkgs = map[string]bool{
	"fmt": true,
	"log": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			secretParams, hasSecret := analysis.FuncDirectiveArgs(fd, "emsim:secret")
			isCT := analysis.FuncHasDirective(fd, "emsim:ct")
			if hasSecret && !isCT {
				pass.Reportf(fd.Pos(), "emsim:secret on %s has no effect without //emsim:ct", fd.Name.Name)
				continue
			}
			if !isCT || fd.Body == nil {
				continue
			}
			c := &checker{pass: pass, fd: fd, tainted: map[types.Object]bool{}}
			c.seedParams(secretParams)
			c.propagate()
			c.check()
		}
	}
	return nil
}

// checker holds the taint state for one ct function.
type checker struct {
	pass    *analysis.Pass
	fd      *ast.FuncDecl
	tainted map[types.Object]bool
}

// seedParams taints the parameters named by //emsim:secret.
func (c *checker) seedParams(names []string) {
	params := map[string]types.Object{}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, n := range f.Names {
				if obj := c.pass.TypesInfo.Defs[n]; obj != nil {
					params[n.Name] = obj
				}
			}
		}
	}
	addFields(c.fd.Recv)
	addFields(c.fd.Type.Params)
	for _, name := range names {
		obj, ok := params[name]
		if !ok {
			c.pass.Reportf(c.fd.Pos(), "emsim:secret on %s names unknown parameter %q", c.fd.Name.Name, name)
			continue
		}
		c.tainted[obj] = true
	}
}

// propagate runs assignment-based taint propagation to a fixpoint.
func (c *checker) propagate() {
	info := c.pass.TypesInfo
	for {
		changed := false
		taint := func(lhs ast.Expr) {
			if obj := c.baseObject(lhs); obj != nil && !c.tainted[obj] {
				c.tainted[obj] = true
				changed = true
			}
		}
		ast.Inspect(c.fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				switch {
				case len(n.Lhs) == len(n.Rhs):
					for i := range n.Lhs {
						if c.taintedExpr(n.Rhs[i]) {
							taint(n.Lhs[i])
						}
					}
				case len(n.Rhs) == 1: // multi-value call or comma-ok
					if c.taintedExpr(n.Rhs[0]) {
						for _, l := range n.Lhs {
							taint(l)
						}
					}
				}
			case *ast.ValueSpec:
				switch {
				case len(n.Values) == len(n.Names):
					for i := range n.Names {
						if c.taintedExpr(n.Values[i]) {
							taint(ast.Expr(n.Names[i]))
						}
					}
				case len(n.Values) == 1:
					if c.taintedExpr(n.Values[0]) {
						for _, name := range n.Names {
							taint(ast.Expr(name))
						}
					}
				}
			case *ast.RangeStmt:
				if n.X != nil && c.taintedExpr(n.X) {
					if n.Key != nil {
						taint(n.Key)
					}
					if n.Value != nil {
						taint(n.Value)
					}
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) == 2 {
					if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "copy" {
						if c.taintedExpr(n.Args[1]) {
							taint(n.Args[0])
						}
					}
				}
			}
			return true
		})
		if !changed {
			return
		}
	}
}

// check walks the body once taint is complete and reports the
// secret-dependent operations the ct contract forbids.
func (c *checker) check() {
	info := c.pass.TypesInfo
	name := c.fd.Name.Name
	ast.Inspect(c.fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if c.taintedExpr(n.Cond) {
				c.pass.Reportf(n.Cond.Pos(), "branch condition depends on secret data in ct function %s", name)
			}
		case *ast.SwitchStmt:
			if n.Tag != nil && c.taintedExpr(n.Tag) {
				c.pass.Reportf(n.Tag.Pos(), "branch condition depends on secret data in ct function %s", name)
			}
		case *ast.CaseClause:
			for _, e := range n.List {
				if c.taintedExpr(e) {
					c.pass.Reportf(e.Pos(), "branch condition depends on secret data in ct function %s", name)
				}
			}
		case *ast.ForStmt:
			if n.Cond != nil && c.taintedExpr(n.Cond) {
				c.pass.Reportf(n.Cond.Pos(), "loop bound depends on secret data in ct function %s", name)
			}
		case *ast.RangeStmt:
			if n.X != nil && c.taintedExpr(n.X) && !fixedLength(info.Types[n.X].Type) {
				c.pass.Reportf(n.X.Pos(), "loop bound depends on secret data in ct function %s", name)
			}
		case *ast.IndexExpr:
			if tv, ok := info.Types[n.X]; !ok || tv.IsType() || tv.Type == nil {
				return true // generic instantiation, not an access
			}
			if indexable(info.Types[n.X].Type) && c.taintedExpr(n.Index) {
				c.pass.Reportf(n.Pos(), "memory access indexed by secret data in ct function %s", name)
			}
		case *ast.CallExpr:
			c.checkCall(n)
		}
		return true
	})
}

// checkCall reports secret data escaping to a callee that is not itself
// verified constant-time.
func (c *checker) checkCall(call *ast.CallExpr) {
	info := c.pass.TypesInfo
	name := c.fd.Name.Name
	fun := ast.Unparen(call.Fun)

	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			return // len/cap/copy/append do not branch on their operands
		}
	}

	anySecret := false
	for _, arg := range call.Args {
		if c.taintedExpr(arg) {
			anySecret = true
			break
		}
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok && !anySecret {
		if _, isSel := info.Selections[sel]; isSel && c.taintedExpr(sel.X) {
			anySecret = true // method call on a secret-carrying receiver
		}
	}
	if !anySecret {
		return
	}

	fn, dynamic := analysis.ResolveCallee(info, fun)
	if dynamic != "" {
		c.pass.Reportf(call.Pos(), "secret data passed through dynamic call (%s) in ct function %s", dynamic, name)
		return
	}
	if fn == nil {
		return
	}
	pkg := fn.Pkg()
	switch {
	case pkg == nil:
		return
	case allowPkgs[pkg.Path()]:
		return
	case c.pass.Module.IsCTFunc(fn):
		return
	case logPkgs[pkg.Path()]:
		c.pass.Reportf(call.Pos(), "secret data reaches logging call %s.%s in ct function %s", pkg.Name(), fn.Name(), name)
	default:
		c.pass.Reportf(call.Pos(), "secret data passed to non-ct function %s.%s in ct function %s", pkg.Name(), fn.Name(), name)
	}
}

// taintedExpr reports whether the expression's value may carry secret
// data. Computation is conservative: any expression with a secret
// operand is secret.
func (c *checker) taintedExpr(e ast.Expr) bool {
	info := c.pass.TypesInfo
	switch e := e.(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return false
		}
		if obj := info.Uses[e]; obj != nil {
			return c.tainted[obj]
		}
		if obj := info.Defs[e]; obj != nil {
			return c.tainted[obj]
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && c.isSecretField(sel) {
			return true
		}
		return c.taintedExpr(e.X)
	case *ast.IndexExpr:
		return c.taintedExpr(e.X) || c.taintedExpr(e.Index)
	case *ast.SliceExpr:
		return c.taintedExpr(e.X)
	case *ast.StarExpr:
		return c.taintedExpr(e.X)
	case *ast.ParenExpr:
		return c.taintedExpr(e.X)
	case *ast.UnaryExpr:
		return c.taintedExpr(e.X)
	case *ast.BinaryExpr:
		return c.taintedExpr(e.X) || c.taintedExpr(e.Y)
	case *ast.TypeAssertExpr:
		return c.taintedExpr(e.X)
	case *ast.KeyValueExpr:
		return c.taintedExpr(e.Value)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if c.taintedExpr(el) {
				return true
			}
		}
	case *ast.CallExpr:
		if tv, ok := info.Types[ast.Unparen(e.Fun)]; ok && tv.IsType() {
			return len(e.Args) == 1 && c.taintedExpr(e.Args[0]) // conversion
		}
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok {
				switch b.Name() {
				case "len", "cap", "make", "new":
					return false
				}
			}
		}
		for _, arg := range e.Args {
			if c.taintedExpr(arg) {
				return true
			}
		}
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			if _, isSel := info.Selections[sel]; isSel {
				return c.taintedExpr(sel.X)
			}
		}
	}
	return false
}

// isSecretField reports whether the selection reads an //emsim:secret
// struct field.
func (c *checker) isSecretField(sel *types.Selection) bool {
	v, ok := sel.Obj().(*types.Var)
	if !ok || !v.IsField() || v.Pkg() == nil {
		return false
	}
	t := sel.Recv()
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return c.pass.Module.IsSecretField(analysis.FieldKey(v.Pkg().Path(), named.Obj().Name(), v.Name()))
}

// baseObject returns the variable at the root of an assignable
// expression (x, x.f, x[i], *x all root at x).
func (c *checker) baseObject(e ast.Expr) types.Object {
	info := c.pass.TypesInfo
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if x.Name == "_" {
				return nil
			}
			if obj := info.Defs[x]; obj != nil {
				return obj
			}
			return info.Uses[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// fixedLength reports whether ranging over t has a compile-time-fixed
// trip count (arrays and pointers to arrays), so the loop bound cannot
// leak even when the contents are secret.
func fixedLength(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	_, ok := t.Underlying().(*types.Array)
	return ok
}

// indexable reports whether t is an array, slice, map or string — the
// shapes where a secret index addresses memory.
func indexable(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	switch u := t.Underlying().(type) {
	case *types.Array, *types.Slice, *types.Map:
		return true
	case *types.Basic:
		return u.Info()&types.IsString != 0
	}
	return false
}
