// Package noalloc verifies the //emsim:noalloc contract: a function so
// annotated must not allocate on the heap in the steady state. The
// simulator's trace→amplitude→signal hot path (cpu.StepInto, the
// Reconstructor, core.Session.SimulateProgramInto) carries the
// annotation; this analyzer makes the AllocsPerRun pins enforceable at
// every call site instead of only the ones the tests happen to cover.
//
// Within an annotated function (and, transitively, every same-package
// function it calls) the analyzer flags:
//
//   - append to a slice not owned by the method receiver
//   - function literals (closures) and method values
//   - implicit or explicit conversions of non-pointer-shaped values to
//     interface types
//   - calls into package fmt
//   - map/slice composite literals, make, new, and string concatenation
//   - go statements
//   - calls through interfaces or function values (unverifiable)
//   - calls to module functions not annotated //emsim:noalloc, and to
//     standard-library functions outside a small allocation-free
//     allowlist (math, math/bits, sync/atomic)
//
// Deliberate exceptions — amortized buffer growth, cold error paths —
// are suppressed in place with //emsim:ignore noalloc <reason>, keeping
// every exception visible and justified.
package noalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"emsim/internal/analysis"
)

// Analyzer is the noalloc checker.
var Analyzer = &analysis.Analyzer{
	Name: "noalloc",
	Doc:  "verify that //emsim:noalloc functions cannot allocate in the steady state",
	Run:  run,
}

// allowPkgs are standard-library packages whose exported functions are
// known not to allocate.
var allowPkgs = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync/atomic": true,
}

func run(pass *analysis.Pass) error {
	decls := map[*types.Func]*ast.FuncDecl{}
	var roots []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				decls[obj] = fd
			}
			if analysis.FuncHasDirective(fd, "emsim:noalloc") {
				roots = append(roots, fd)
			}
		}
	}
	c := &checker{pass: pass, decls: decls, checked: map[*ast.FuncDecl]bool{}}
	queue := roots
	for len(queue) > 0 {
		fd := queue[0]
		queue = queue[1:]
		if c.checked[fd] || fd.Body == nil {
			continue
		}
		c.checked[fd] = true
		queue = append(queue, c.checkFunc(fd)...)
	}
	return nil
}

type checker struct {
	pass    *analysis.Pass
	decls   map[*types.Func]*ast.FuncDecl
	checked map[*ast.FuncDecl]bool
}

// checkFunc scans one function body and returns same-package callees
// that must inherit the check.
func (c *checker) checkFunc(fd *ast.FuncDecl) []*ast.FuncDecl {
	info := c.pass.TypesInfo
	var recvObj types.Object
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		recvObj = info.Defs[fd.Recv.List[0].Names[0]]
	}
	var sig *types.Signature
	if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
		sig = obj.Type().(*types.Signature)
	}

	// Collect the expressions used as call operands, so x.M as a call is
	// not also flagged as a method value.
	calleeExprs := map[ast.Expr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			calleeExprs[ast.Unparen(call.Fun)] = true
		}
		return true
	})

	var todo []*ast.FuncDecl
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.pass.Reportf(n.Pos(), "function literal may allocate a closure in noalloc function %s", fd.Name.Name)
			return false // its body is not part of the steady-state path proper
		case *ast.GoStmt:
			c.pass.Reportf(n.Pos(), "go statement allocates a goroutine in noalloc function %s", fd.Name.Name)
		case *ast.CompositeLit:
			t := info.Types[n].Type
			if t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					c.pass.Reportf(n.Pos(), "map literal allocates in noalloc function %s", fd.Name.Name)
				case *types.Slice:
					c.pass.Reportf(n.Pos(), "slice literal allocates in noalloc function %s", fd.Name.Name)
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(info.Types[n.X].Type) {
				c.pass.Reportf(n.Pos(), "string concatenation allocates in noalloc function %s", fd.Name.Name)
			}
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[n]; ok && sel.Kind() == types.MethodVal && !calleeExprs[ast.Expr(n)] {
				c.pass.Reportf(n.Pos(), "method value %s allocates a closure in noalloc function %s", n.Sel.Name, fd.Name.Name)
			}
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					c.checkIfaceConv(fd, info.Types[n.Lhs[i]].Type, n.Rhs[i], "assignment")
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				t := info.Types[n.Type].Type
				for _, v := range n.Values {
					c.checkIfaceConv(fd, t, v, "variable initialization")
				}
			}
		case *ast.ReturnStmt:
			if sig != nil && len(n.Results) == sig.Results().Len() {
				for i, r := range n.Results {
					c.checkIfaceConv(fd, sig.Results().At(i).Type(), r, "return")
				}
			}
		case *ast.CallExpr:
			todo = append(todo, c.checkCall(fd, recvObj, n)...)
		}
		return true
	})
	return todo
}

// checkCall classifies one call expression. It returns same-package
// declarations to check transitively.
func (c *checker) checkCall(fd *ast.FuncDecl, recvObj types.Object, call *ast.CallExpr) []*ast.FuncDecl {
	info := c.pass.TypesInfo
	fun := ast.Unparen(call.Fun)

	// Conversion, not a call.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		c.checkConversion(fd, tv.Type, call)
		return nil
	}

	// Builtin.
	if id, ok := calleeIdent(fun); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			c.checkBuiltin(fd, recvObj, b.Name(), call)
			return nil
		}
	}

	fn, dynamic := analysis.ResolveCallee(info, fun)
	if dynamic != "" {
		c.pass.Reportf(call.Pos(), "call through %s in noalloc function %s cannot be verified allocation-free", dynamic, fd.Name.Name)
		return nil
	}
	if fn == nil {
		if _, isLit := fun.(*ast.FuncLit); isLit {
			return nil // the literal itself is already flagged
		}
		c.pass.Reportf(call.Pos(), "unresolvable call in noalloc function %s", fd.Name.Name)
		return nil
	}

	pkg := fn.Pkg()
	switch {
	case pkg == nil:
		// Universe-scope methods (error.Error) arrive via interfaces and
		// are reported as dynamic calls above.
	case pkg.Path() == "fmt":
		c.pass.Reportf(call.Pos(), "call to fmt.%s allocates in noalloc function %s", fn.Name(), fd.Name.Name)
		return nil
	case pkg == c.pass.Pkg:
		if decl, ok := c.decls[fn]; ok {
			if !analysis.FuncHasDirective(decl, "emsim:noalloc") {
				// A suppressed call site is an acknowledged exception; the
				// callee is not on the verified path through this edge.
				if c.pass.SuppressedAt(call.Pos()) {
					return nil
				}
				return []*ast.FuncDecl{decl} // inherit the check
			}
		} else if !c.pass.Module.IsNoallocFunc(fn) {
			c.pass.Reportf(call.Pos(), "call to %s (no body visible) in noalloc function %s", fn.Name(), fd.Name.Name)
			return nil
		}
	case isModulePath(pkg.Path()):
		if !c.pass.Module.IsNoallocFunc(fn) {
			c.pass.Reportf(call.Pos(), "call to %s.%s, which is not annotated //emsim:noalloc, in noalloc function %s",
				pkg.Name(), fn.Name(), fd.Name.Name)
			return nil
		}
	default:
		if !allowPkgs[pkg.Path()] {
			c.pass.Reportf(call.Pos(), "call to %s.%s (not on the allocation-free allowlist) in noalloc function %s",
				pkg.Name(), fn.Name(), fd.Name.Name)
			return nil
		}
	}

	// The callee is acceptable; its arguments may still box.
	if sig, ok := fn.Type().(*types.Signature); ok {
		params := sig.Params()
		if sig.Variadic() && call.Ellipsis == token.NoPos && len(call.Args) > params.Len()-1 {
			c.pass.Reportf(call.Pos(), "variadic call to %s allocates its argument slice in noalloc function %s",
				fn.Name(), fd.Name.Name)
		}
		n := params.Len()
		if sig.Variadic() {
			n-- // the variadic slice is flagged above
		}
		for i := 0; i < n && i < len(call.Args); i++ {
			c.checkIfaceConv(fd, params.At(i).Type(), call.Args[i], "argument")
		}
	}
	return nil
}

func (c *checker) checkBuiltin(fd *ast.FuncDecl, recvObj types.Object, name string, call *ast.CallExpr) {
	info := c.pass.TypesInfo
	switch name {
	case "append":
		if len(call.Args) == 0 {
			return
		}
		if !isReceiverOwned(info, call.Args[0], recvObj) {
			c.pass.Reportf(call.Pos(), "append to a slice not owned by the receiver may allocate in noalloc function %s", fd.Name.Name)
		}
	case "make":
		t := info.Types[call].Type
		if t == nil {
			return
		}
		switch t.Underlying().(type) {
		case *types.Map:
			c.pass.Reportf(call.Pos(), "make(map) allocates in noalloc function %s", fd.Name.Name)
		case *types.Chan:
			c.pass.Reportf(call.Pos(), "make(chan) allocates in noalloc function %s", fd.Name.Name)
		default:
			c.pass.Reportf(call.Pos(), "make allocates in noalloc function %s (amortized growth needs an //emsim:ignore with a reason)", fd.Name.Name)
		}
	case "new":
		c.pass.Reportf(call.Pos(), "new allocates in noalloc function %s", fd.Name.Name)
	}
}

// checkConversion flags conversions that allocate: concrete values boxed
// into interfaces and string<->slice/int conversions.
func (c *checker) checkConversion(fd *ast.FuncDecl, dst types.Type, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	src := c.pass.TypesInfo.Types[call.Args[0]].Type
	if src == nil {
		return
	}
	if types.IsInterface(dst) {
		c.checkIfaceConv(fd, dst, call.Args[0], "conversion")
		return
	}
	dstStr, srcStr := isString(dst), isString(src)
	switch {
	case dstStr && !srcStr:
		c.pass.Reportf(call.Pos(), "conversion to string allocates in noalloc function %s", fd.Name.Name)
	case srcStr && !dstStr:
		if _, ok := dst.Underlying().(*types.Slice); ok {
			c.pass.Reportf(call.Pos(), "conversion of string to slice allocates in noalloc function %s", fd.Name.Name)
		}
	}
}

// checkIfaceConv reports expr if assigning it to dst boxes a
// non-pointer-shaped concrete value into an interface.
func (c *checker) checkIfaceConv(fd *ast.FuncDecl, dst types.Type, expr ast.Expr, context string) {
	if dst == nil || !types.IsInterface(dst) {
		return
	}
	tv, ok := c.pass.TypesInfo.Types[expr]
	if !ok || tv.IsNil() || tv.Type == nil {
		return
	}
	if types.IsInterface(tv.Type) || isDirectIface(tv.Type) {
		return
	}
	c.pass.Reportf(expr.Pos(), "%s converted to interface boxes a %s value in noalloc function %s",
		context, tv.Type.String(), fd.Name.Name)
}

// calleeIdent unwraps fun to its identifier, if it has one.
func calleeIdent(fun ast.Expr) (*ast.Ident, bool) {
	id, ok := fun.(*ast.Ident)
	return id, ok
}

// isReceiverOwned reports whether the expression is rooted at the method
// receiver (r.buf, r.x.buf, r.bufs[i], ...).
func isReceiverOwned(info *types.Info, expr ast.Expr, recvObj types.Object) bool {
	if recvObj == nil {
		return false
	}
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			return info.Uses[e] == recvObj || info.Defs[e] == recvObj
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return false
		}
	}
}

// isDirectIface reports whether values of t are stored directly in an
// interface word (pointer-shaped), so boxing them does not allocate.
func isDirectIface(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Struct:
		return u.NumFields() == 1 && isDirectIface(u.Field(0).Type())
	case *types.Array:
		return u.Len() == 1 && isDirectIface(u.Elem())
	}
	return false
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isModulePath(path string) bool {
	return path == "emsim" || strings.HasPrefix(path, "emsim/")
}
