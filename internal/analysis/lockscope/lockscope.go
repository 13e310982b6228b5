// Package lockscope checks mutex hygiene in the lock-heavy packages
// (serve's registries and scheduler, core's trainer/cache/pool,
// defend's evaluator, par's fan-out): a sync.Mutex/RWMutex critical
// section must not perform operations that can block indefinitely or
// run foreign code, and a function that returns with a lock held must
// have deferred the unlock.
//
// The analyzer performs a linear, source-order scan of each function
// body (function literals are scanned as their own scopes), tracking
// which mutexes are held. While a lock is held it flags:
//
//   - channel sends and receives (select statements with a default
//     clause are exempt — they are non-blocking by construction, the
//     scheduler's submit path relies on this)
//   - select statements without a default clause
//   - sync.WaitGroup.Wait and time.Sleep
//   - calls into I/O packages (net, net/http, os, io, bufio)
//   - dynamic calls — function values, function-typed fields,
//     interface methods. A callback invoked under a lock can run
//     arbitrary foreign code, including code that takes the same lock.
//
// It also flags returning (or falling off the end of the function)
// while a lock is held without a deferred unlock, and locking a mutex
// that the scan already sees as held. sync.Cond.Wait is exempt — it
// requires the lock by contract.
//
// The scan is linear, not path-sensitive: it trades soundness on
// branch-heavy lock juggling (which the targeted packages avoid) for
// zero tolerance of blocking work inside the critical sections they do
// write.
package lockscope

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"emsim/internal/analysis"
)

// DefaultPaths are the lock-heavy packages the stock analyzer watches.
var DefaultPaths = []string{
	"emsim/internal/core",
	"emsim/internal/serve",
	"emsim/internal/defend",
	"emsim/internal/par",
}

// Analyzer checks the default package set.
var Analyzer = New(DefaultPaths...)

// ioPkgs are packages whose calls perform I/O and must not run under a
// lock.
var ioPkgs = map[string]bool{
	"bufio":    true,
	"io":       true,
	"net":      true,
	"net/http": true,
	"os":       true,
}

// New returns a lockscope analyzer restricted to the given import
// paths.
func New(paths ...string) *analysis.Analyzer {
	scope := map[string]bool{}
	for _, p := range paths {
		scope[p] = true
	}
	return &analysis.Analyzer{
		Name: "lockscope",
		Doc:  "flag blocking operations and missed unlocks inside mutex critical sections",
		Run: func(pass *analysis.Pass) error {
			if !scope[pass.Pkg.Path()] {
				return nil
			}
			for _, f := range pass.Files {
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					checkScope(pass, fd.Name.Name, fd.Body)
				}
			}
			return nil
		},
	}
}

// event is one lock-relevant occurrence in source order.
type event struct {
	pos  token.Pos
	kind eventKind
	key  string // lock expression, for lock/unlock events
	desc string // human description, for blocking events
}

type eventKind int

const (
	evLock eventKind = iota
	evUnlock
	evDeferUnlock
	evReturn
	evBlocking
)

// heldLock is the scan state for one currently-held mutex.
type heldLock struct {
	pos      token.Pos
	deferred bool // a deferred unlock covers it
}

// checkScope scans one function scope (a declaration body or a function
// literal body); nested literals are scanned separately so a closure's
// locking is not confused with its enclosing function's.
func checkScope(pass *analysis.Pass, name string, body *ast.BlockStmt) {
	events := collectEvents(pass, body)
	sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	held := map[string]*heldLock{}
	heldKeys := func() []string {
		keys := make([]string, 0, len(held))
		for k := range held {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys
	}
	for _, ev := range events {
		switch ev.kind {
		case evLock:
			if _, ok := held[ev.key]; ok {
				pass.Reportf(ev.pos, "%s locked again while already held in %s (self-deadlock)", ev.key, name)
			}
			held[ev.key] = &heldLock{pos: ev.pos}
		case evUnlock:
			delete(held, ev.key)
		case evDeferUnlock:
			if h, ok := held[ev.key]; ok {
				h.deferred = true
			}
		case evReturn:
			for _, k := range heldKeys() {
				if !held[k].deferred {
					pass.Reportf(ev.pos, "return while %s is held in %s; defer the unlock", k, name)
				}
			}
		case evBlocking:
			for _, k := range heldKeys() {
				pass.Reportf(ev.pos, "%s while %s is held in %s", ev.desc, k, name)
			}
		}
	}
	for _, k := range heldKeys() {
		if !held[k].deferred {
			pass.Reportf(held[k].pos, "%s is still held when %s ends and its unlock is not deferred", k, name)
		}
	}
}

// collectEvents gathers the scope's lock, unlock, return and blocking
// events. It does not descend into nested function literals.
func collectEvents(pass *analysis.Pass, body *ast.BlockStmt) []event {
	info := pass.TypesInfo
	var events []event

	// Sends/receives appearing as a select's comm clauses are attempts,
	// not blocking points; the select statement itself is classified.
	commOps := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, c := range sel.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			switch comm := cc.Comm.(type) {
			case *ast.SendStmt:
				commOps[comm] = true
			case *ast.ExprStmt:
				commOps[comm.X] = true
			case *ast.AssignStmt:
				for _, r := range comm.Rhs {
					commOps[r] = true
				}
			}
		}
		return true
	})

	var inDefer int
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkScope(pass, "function literal", n.Body)
			return false
		case *ast.DeferStmt:
			// Classify the deferred call with defer semantics, then walk
			// its arguments (evaluated now) normally.
			inDefer++
			ast.Inspect(n.Call, walk)
			inDefer--
			return false
		case *ast.ReturnStmt:
			events = append(events, event{pos: n.Pos(), kind: evReturn})
		case *ast.SendStmt:
			if !commOps[n] {
				events = append(events, event{pos: n.Pos(), kind: evBlocking, desc: "channel send"})
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !commOps[ast.Node(n)] {
				events = append(events, event{pos: n.Pos(), kind: evBlocking, desc: "channel receive"})
			}
		case *ast.RangeStmt:
			if t := info.Types[n.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					events = append(events, event{pos: n.Pos(), kind: evBlocking, desc: "range over channel"})
				}
			}
		case *ast.SelectStmt:
			if !hasDefault(n) {
				events = append(events, event{pos: n.Pos(), kind: evBlocking, desc: "select without default"})
			}
		case *ast.CallExpr:
			events = append(events, classifyCall(pass, n, inDefer > 0)...)
		}
		return true
	}
	ast.Inspect(body, walk)
	return events
}

// classifyCall turns one call into lock, unlock or blocking events (or
// none, for calls known to be safe under a lock).
func classifyCall(pass *analysis.Pass, call *ast.CallExpr, deferred bool) []event {
	info := pass.TypesInfo
	fun := ast.Unparen(call.Fun)

	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return nil // conversion
	}
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			return nil
		}
		if _, isVar := info.Uses[id].(*types.Var); isVar {
			return []event{{pos: call.Pos(), kind: evBlocking, desc: "call through function value " + id.Name}}
		}
	}

	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok {
			fn, isFunc := s.Obj().(*types.Func)
			if isFunc {
				if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "sync" {
					recv := recvTypeName(fn)
					switch {
					case recv == "Mutex" || recv == "RWMutex" || recv == "Locker":
						key := types.ExprString(sel.X)
						switch fn.Name() {
						case "Lock", "RLock":
							return []event{{pos: call.Pos(), kind: evLock, key: key}}
						case "Unlock", "RUnlock":
							kind := evUnlock
							if deferred {
								kind = evDeferUnlock
							}
							return []event{{pos: call.Pos(), kind: kind, key: key}}
						}
						return nil
					case recv == "WaitGroup" && fn.Name() == "Wait":
						return []event{{pos: call.Pos(), kind: evBlocking, desc: "WaitGroup.Wait"}}
					case recv == "Cond" && fn.Name() == "Wait":
						return nil // requires the lock by contract
					}
					return nil // other sync ops (Once.Do aside) are quick
				}
				if types.IsInterface(s.Recv()) {
					return []event{{pos: call.Pos(), kind: evBlocking, desc: "call through interface method " + sel.Sel.Name}}
				}
				return classifyStaticCall(call, fn)
			}
			return []event{{pos: call.Pos(), kind: evBlocking, desc: "call through function-typed field " + sel.Sel.Name}}
		}
		// Package-qualified call.
		if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
			return classifyStaticCall(call, fn)
		}
		if _, ok := info.Uses[sel.Sel].(*types.Var); ok {
			return []event{{pos: call.Pos(), kind: evBlocking, desc: "call through function variable " + sel.Sel.Name}}
		}
	}
	return nil
}

// classifyStaticCall flags statically-resolved callees that block:
// time.Sleep and the I/O packages.
func classifyStaticCall(call *ast.CallExpr, fn *types.Func) []event {
	pkg := fn.Pkg()
	if pkg == nil {
		return nil
	}
	switch {
	case pkg.Path() == "time" && fn.Name() == "Sleep":
		return []event{{pos: call.Pos(), kind: evBlocking, desc: "time.Sleep"}}
	case ioPkgs[pkg.Path()]:
		return []event{{pos: call.Pos(), kind: evBlocking, desc: "I/O call " + pkg.Name() + "." + fn.Name()}}
	}
	return nil
}

// recvTypeName returns the name of the method's receiver type, pointer
// receivers unwrapped, or "".
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

func hasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}
