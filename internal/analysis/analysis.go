// Package analysis is a minimal, dependency-free analogue of
// golang.org/x/tools/go/analysis used to build emsim-vet, the project's
// static-analysis gate. It deliberately mirrors the upstream shape — an
// Analyzer with a Run function over a typed Pass — so the checkers could
// be ported to the real framework wholesale if the x/tools dependency
// ever becomes available, but it is built entirely on the standard
// library: packages are enumerated with `go list`, dependencies are
// imported from compiler export data, and only the analyzed package
// itself is type-checked from source.
//
// Two project-specific comment directives drive the suite:
//
//	//emsim:noalloc
//	    placed in a function's doc comment, declares that the function
//	    must not allocate in the steady state. The noalloc analyzer
//	    verifies the declaration at every call site it can see.
//
//	//emsim:ignore <analyzer> <reason>
//	    suppresses the named analyzer's findings on the comment's line
//	    and on the line directly below it. The reason is mandatory; a
//	    reason-less suppression is itself reported and suppresses
//	    nothing. The reason ends at the first "//", so test scaffolding
//	    (or a second comment) on the same line is not swallowed. A
//	    suppression that silences nothing — no finding matched it and no
//	    analyzer consulted it — is stale and is itself reported, so dead
//	    exemptions cannot accumulate.
//
//	//emsim:ct
//	    placed in a function's doc comment, declares that the function
//	    must be constant-time with respect to its secret inputs. The
//	    secretflow analyzer verifies the declaration.
//
//	//emsim:secret <param> [param...]
//	    in a //emsim:ct function's doc comment, names the parameters
//	    that carry secret data. On a struct field's doc comment (no
//	    arguments) it marks the field itself as secret, module-wide.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //emsim:ignore suppressions. It must be a single word.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run applies the analyzer to one package, reporting findings via
	// pass.Reportf.
	Run func(*Pass) error
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Module exposes module-wide facts (currently the //emsim:noalloc
	// annotation set) collected from every package in the module, so an
	// analyzer can reason about cross-package calls.
	Module *ModuleInfo

	diagnostics []diagnostic
	suppressed  map[string]*suppression
}

// SuppressedAt reports whether a finding by this pass's analyzer at pos
// would be silenced by an //emsim:ignore directive. Analyzers whose
// checks propagate (noalloc's callee inheritance) use this to stop
// propagation through an acknowledged exception. Consulting a
// suppression counts as using it for the stale-suppression check, since
// the directive changed the analyzer's behavior even though no
// diagnostic was filed.
func (p *Pass) SuppressedAt(pos token.Pos) bool {
	position := p.Fset.Position(pos)
	s, ok := p.suppressed[suppressKey(p.Analyzer.Name, position.Filename, position.Line)]
	if ok {
		s.used = true
	}
	return ok
}

type diagnostic struct {
	pos     token.Pos
	message string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, diagnostic{pos: pos, message: fmt.Sprintf(format, args...)})
}

// A Finding is one diagnostic, positioned and attributed to its analyzer.
type Finding struct {
	Analyzer string
	Position token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.Position, f.Message, f.Analyzer)
}

// SuppressionAnalyzer is the pseudo-analyzer name under which malformed
// //emsim:ignore comments are reported. It cannot itself be suppressed.
const SuppressionAnalyzer = "suppression"

// ignorePrefix is the suppression directive prefix.
const ignorePrefix = "//emsim:ignore"

// suppression is one parsed //emsim:ignore directive.
type suppression struct {
	file     string
	line     int
	analyzer string
	reason   string
	pos      token.Pos
	used     bool // filtered a diagnostic or was consulted via SuppressedAt
}

// parseSuppressions extracts every //emsim:ignore directive from the
// files' comments.
func parseSuppressions(fset *token.FileSet, files []*ast.File) []suppression {
	var out []suppression
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				// A nested "//" (for example test scaffolding) ends the
				// directive.
				if i := strings.Index(rest, "//"); i >= 0 {
					rest = rest[:i]
				}
				name, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
				pos := fset.Position(c.Pos())
				out = append(out, suppression{
					file:     pos.Filename,
					line:     pos.Line,
					analyzer: name,
					reason:   strings.TrimSpace(reason),
					pos:      c.Pos(),
				})
			}
		}
	}
	return out
}

// AnalyzerStat counts one analyzer's outcomes across the whole run.
type AnalyzerStat struct {
	Findings   int `json:"findings"`
	Suppressed int `json:"suppressed"`
}

// Result is the full outcome of a RunAll: the surviving findings plus
// the bookkeeping a driver needs for summaries and machine output.
type Result struct {
	// Findings are the surviving diagnostics, sorted by position.
	Findings []Finding
	// Packages is the number of packages analyzed.
	Packages int
	// Suppressed is the number of diagnostics silenced by //emsim:ignore
	// directives (a directive covering two diagnostics counts twice).
	Suppressed int
	// Stats breaks findings and suppressions down per analyzer (the
	// SuppressionAnalyzer pseudo-entry counts directive hygiene
	// findings).
	Stats map[string]AnalyzerStat
}

// Run applies every analyzer to every package, resolves suppressions, and
// returns the surviving findings sorted by position. It is RunAll
// without the summary bookkeeping.
func Run(pkgs []*Package, mod *ModuleInfo, analyzers []*Analyzer) ([]Finding, error) {
	res, err := RunAll(pkgs, mod, analyzers)
	if err != nil {
		return nil, err
	}
	return res.Findings, nil
}

// RunAll applies every analyzer to every package, resolves suppressions,
// and returns the surviving findings sorted by position along with
// per-analyzer statistics. Malformed suppressions (missing analyzer name
// or reason, or naming an analyzer that does not exist) are themselves
// reported, as are stale ones: a well-formed suppression that neither
// filtered a diagnostic nor was consulted by its analyzer silences
// nothing and is reported so dead exemptions cannot accumulate.
func RunAll(pkgs []*Package, mod *ModuleInfo, analyzers []*Analyzer) (*Result, error) {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	res := &Result{Packages: len(pkgs), Stats: map[string]AnalyzerStat{}}
	report := func(f Finding, suppressedBy *suppression) {
		stat := res.Stats[f.Analyzer]
		if suppressedBy != nil {
			suppressedBy.used = true
			stat.Suppressed++
			res.Suppressed++
		} else {
			stat.Findings++
			res.Findings = append(res.Findings, f)
		}
		res.Stats[f.Analyzer] = stat
	}
	for _, pkg := range pkgs {
		sups := parseSuppressions(pkg.Fset, pkg.Files)
		active := map[string]*suppression{}
		var wellFormed []*suppression
		for i := range sups {
			s := &sups[i]
			switch {
			case s.analyzer == "":
				report(Finding{
					Analyzer: SuppressionAnalyzer,
					Position: pkg.Fset.Position(s.pos),
					Message:  "emsim:ignore needs an analyzer name and a reason",
				}, nil)
			case !known[s.analyzer]:
				report(Finding{
					Analyzer: SuppressionAnalyzer,
					Position: pkg.Fset.Position(s.pos),
					Message:  fmt.Sprintf("emsim:ignore names unknown analyzer %q", s.analyzer),
				}, nil)
			case s.reason == "":
				report(Finding{
					Analyzer: SuppressionAnalyzer,
					Position: pkg.Fset.Position(s.pos),
					Message:  fmt.Sprintf("emsim:ignore %s is missing its required reason", s.analyzer),
				}, nil)
			default:
				// The directive covers its own line and the next one, so
				// it can trail the flagged statement or sit above it.
				active[suppressKey(s.analyzer, s.file, s.line)] = s
				active[suppressKey(s.analyzer, s.file, s.line+1)] = s
				wellFormed = append(wellFormed, s)
			}
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				TypesInfo:  pkg.TypesInfo,
				Module:     mod,
				suppressed: active,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.ImportPath, err)
			}
			for _, d := range pass.diagnostics {
				pos := pkg.Fset.Position(d.pos)
				f := Finding{Analyzer: a.Name, Position: pos, Message: d.message}
				report(f, active[suppressKey(a.Name, pos.Filename, pos.Line)])
			}
		}
		for _, s := range wellFormed {
			if s.used {
				continue
			}
			report(Finding{
				Analyzer: SuppressionAnalyzer,
				Position: pkg.Fset.Position(s.pos),
				Message:  fmt.Sprintf("emsim:ignore %s matched no finding; remove the stale suppression", s.analyzer),
			}, nil)
		}
	}
	findings := res.Findings
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return res, nil
}

func suppressKey(analyzer, file string, line int) string {
	return fmt.Sprintf("%s\x00%s\x00%d", analyzer, file, line)
}

// FuncHasDirective reports whether the function's doc comment contains
// the given comment directive (for example "emsim:noalloc").
func FuncHasDirective(decl *ast.FuncDecl, directive string) bool {
	return commentGroupHasDirective(decl.Doc, directive)
}

// FuncDirectiveArgs returns the space-separated arguments of every
// occurrence of the directive in the function's doc comment, in order.
// The second result reports whether the directive appears at all (a
// bare directive yields ok with no arguments).
func FuncDirectiveArgs(decl *ast.FuncDecl, directive string) (args []string, ok bool) {
	if decl.Doc == nil {
		return nil, false
	}
	want := "//" + directive
	for _, c := range decl.Doc.List {
		text := strings.TrimSpace(c.Text)
		switch {
		case text == want:
			ok = true
		case strings.HasPrefix(text, want+" "):
			ok = true
			args = append(args, strings.Fields(strings.TrimPrefix(text, want+" "))...)
		}
	}
	return args, ok
}

func commentGroupHasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	want := "//" + directive
	for _, c := range doc.List {
		text := strings.TrimSpace(c.Text)
		if text == want || strings.HasPrefix(text, want+" ") {
			return true
		}
	}
	return false
}

// ResolveCallee returns the function a call's Fun expression names
// statically. For a call it cannot resolve statically it returns what the
// call goes through instead ("function value f", "interface method M",
// ...); for anything else, neither.
func ResolveCallee(info *types.Info, fun ast.Expr) (fn *types.Func, dynamic string) {
	switch fun := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			return obj, ""
		case *types.Var:
			return nil, "function value " + fun.Name
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if types.IsInterface(sel.Recv()) {
				return nil, "interface method " + fun.Sel.Name
			}
			if f, ok := sel.Obj().(*types.Func); ok {
				return f, ""
			}
			return nil, "function-typed field " + fun.Sel.Name
		}
		// Package-qualified reference.
		switch obj := info.Uses[fun.Sel].(type) {
		case *types.Func:
			return obj, ""
		case *types.Var:
			return nil, "function variable " + fun.Sel.Name
		}
	case *ast.IndexExpr: // generic instantiation F[T](...)
		return ResolveCallee(info, fun.X)
	}
	return nil, ""
}

// ModuleInfo holds facts collected from every package in the module
// before analysis runs, keyed so they survive the package-at-a-time
// type-checking model (imported packages come from export data, which
// carries no comments).
type ModuleInfo struct {
	noalloc     map[string]bool
	ct          map[string]bool
	secretField map[string]bool
}

// NewModuleInfo returns an empty fact set.
func NewModuleInfo() *ModuleInfo {
	return &ModuleInfo{
		noalloc:     map[string]bool{},
		ct:          map[string]bool{},
		secretField: map[string]bool{},
	}
}

// AddNoalloc records that the function identified by key carries the
// //emsim:noalloc annotation.
func (m *ModuleInfo) AddNoalloc(key string) { m.noalloc[key] = true }

// IsNoallocKey reports whether the function identified by key is
// annotated //emsim:noalloc.
func (m *ModuleInfo) IsNoallocKey(key string) bool { return m.noalloc[key] }

// IsNoallocFunc reports whether fn is annotated //emsim:noalloc.
func (m *ModuleInfo) IsNoallocFunc(fn *types.Func) bool { return m.noalloc[FuncKey(fn)] }

// NoallocCount returns the number of annotated functions (for reporting).
func (m *ModuleInfo) NoallocCount() int { return len(m.noalloc) }

// AddCT records that the function identified by key carries the
// //emsim:ct annotation.
func (m *ModuleInfo) AddCT(key string) { m.ct[key] = true }

// IsCTKey reports whether the function identified by key is annotated
// //emsim:ct.
func (m *ModuleInfo) IsCTKey(key string) bool { return m.ct[key] }

// IsCTFunc reports whether fn is annotated //emsim:ct.
func (m *ModuleInfo) IsCTFunc(fn *types.Func) bool { return m.ct[FuncKey(fn)] }

// CTCount returns the number of //emsim:ct functions (for reporting).
func (m *ModuleInfo) CTCount() int { return len(m.ct) }

// AddSecretField records that the struct field identified by key (see
// FieldKey) carries the //emsim:secret annotation.
func (m *ModuleInfo) AddSecretField(key string) { m.secretField[key] = true }

// IsSecretField reports whether the struct field identified by key is
// annotated //emsim:secret.
func (m *ModuleInfo) IsSecretField(key string) bool { return m.secretField[key] }

// SecretFieldCount returns the number of //emsim:secret struct fields.
func (m *ModuleInfo) SecretFieldCount() int { return len(m.secretField) }

// FieldKey returns the module-wide key of a struct field:
// "pkgpath.Type.Field".
func FieldKey(pkgPath, typeName, fieldName string) string {
	return pkgPath + "." + typeName + "." + fieldName
}

// FuncKey returns the module-wide key of a function object:
// "pkgpath.Func" for package functions and "pkgpath.Type.Method" for
// methods (pointer receivers are keyed by their element type).
func FuncKey(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return fn.Name()
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		if n, isNamed := t.(*types.Named); isNamed {
			return pkg.Path() + "." + n.Obj().Name() + "." + fn.Name()
		}
	}
	return pkg.Path() + "." + fn.Name()
}

// CollectAnnotations scans a package's syntax for //emsim:noalloc and
// //emsim:ct function directives and //emsim:secret struct-field
// directives, recording them in m under pkgPath.
func (m *ModuleInfo) CollectAnnotations(pkgPath string, files []*ast.File) {
	for _, f := range files {
		for _, d := range f.Decls {
			switch decl := d.(type) {
			case *ast.FuncDecl:
				if FuncHasDirective(decl, "emsim:noalloc") {
					m.AddNoalloc(declKey(pkgPath, decl))
				}
				if FuncHasDirective(decl, "emsim:ct") {
					m.AddCT(declKey(pkgPath, decl))
				}
			case *ast.GenDecl:
				m.collectSecretFields(pkgPath, decl)
			}
		}
	}
}

// collectSecretFields records //emsim:secret directives found on struct
// field doc comments inside a type declaration.
func (m *ModuleInfo) collectSecretFields(pkgPath string, decl *ast.GenDecl) {
	if decl.Tok != token.TYPE {
		return
	}
	for _, spec := range decl.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok || st.Fields == nil {
			continue
		}
		for _, field := range st.Fields.List {
			if !commentGroupHasDirective(field.Doc, "emsim:secret") &&
				!commentGroupHasDirective(field.Comment, "emsim:secret") {
				continue
			}
			for _, name := range field.Names {
				m.AddSecretField(FieldKey(pkgPath, ts.Name.Name, name.Name))
			}
		}
	}
}

// declKey computes the module-wide key of a declaration syntactically,
// matching FuncKey's object-based form.
func declKey(pkgPath string, fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		t := fd.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		// Generic receivers (Type[T]) do not occur in this module, but
		// unwrap them anyway so the key stays stable if they appear.
		if idx, ok := t.(*ast.IndexExpr); ok {
			t = idx.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return pkgPath + "." + id.Name + "." + fd.Name.Name
		}
	}
	return pkgPath + "." + fd.Name.Name
}
