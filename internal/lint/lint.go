// Package lint implements splitlint: a zero-dependency static-analysis
// suite (stdlib go/parser + go/types only) enforcing the invariants the
// compiler cannot see but the SPLIT reproduction's correctness rests on.
// Each of the seven rules is an Analyzer that sees every loaded package at
// once:
//
//   - noclock: no wall clock outside the real-time layers;
//   - norandglobal: every random draw comes from an injected, seeded
//     generator;
//   - msunits: time-valued names carry their unit, and no conversion
//     mixes milliseconds with nanoseconds;
//   - errwrap: error chains stay inspectable (%w, errors.Is);
//   - hotalloc: no heap allocation on the //lint:hotpath grant path;
//   - locks: no escape, re-acquisition or lock-order cycle under a mutex,
//     in any package;
//   - vocab: the simulator and the serving path share one vocabulary.
//
// A diagnostic can be suppressed with a directive on the offending line or
// the line above it:
//
//	//lint:ignore <rule>[,<rule>...] <reason>
//
// The reason is mandatory and every named rule must exist. A directive
// without a reason suppresses nothing and is itself reported under rule
// "ignore"; so is each unknown rule name, which would otherwise go silently
// dead.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
}

// ModuleReportFunc records one violation at pos inside package p. Naming
// the package lets ignore directives resolve against the right files.
type ModuleReportFunc func(p *Package, pos token.Pos, format string, args ...any)

// Analyzer is one lint rule. Every rule sees all loaded packages at once:
// per-package rules loop over them, module rules follow calls and
// references across package boundaries (hotalloc's transitive allocation
// propagation, locks' acquisition graph, vocab's cross-layer drift checks).
type Analyzer struct {
	// Name is the rule name used in diagnostics and ignore directives.
	Name string
	// Doc is a one-line description of the invariant the rule protects.
	Doc string
	// Run inspects the packages and reports violations.
	Run func(pkgs []*Package, report ModuleReportFunc)
}

// All returns every analyzer in stable order.
func All() []*Analyzer {
	return []*Analyzer{Noclock, Norandglobal, Msunits, Errwrap, Hotalloc, Locks, Vocab}
}

// Run applies the analyzers to every package, drops diagnostics suppressed
// by //lint:ignore directives, and returns the rest sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	var diags []Diagnostic
	ignoresByPkg := make(map[*Package]ignoreSet, len(pkgs))
	for _, p := range pkgs {
		ignores, malformed := collectIgnores(p, known)
		ignoresByPkg[p] = ignores
		diags = append(diags, malformed...)
	}
	for _, a := range analyzers {
		a.Run(pkgs, func(p *Package, pos token.Pos, format string, args ...any) {
			position := p.Fset.Position(pos)
			if !ignoresByPkg[p].suppresses(a.Name, position) {
				diags = append(diags, Diagnostic{Pos: position, Rule: a.Name, Msg: fmt.Sprintf(format, args...)})
			}
		})
	}
	slices.SortFunc(diags, func(a, b Diagnostic) int {
		return cmp.Or(strings.Compare(a.Pos.Filename, b.Pos.Filename), cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column), strings.Compare(a.Rule, b.Rule), strings.Compare(a.Msg, b.Msg))
	})
	return diags
}

// ignoreDirective is the parsed form of one //lint:ignore comment.
type ignoreDirective struct {
	rules map[string]bool
}

// ignoreSet maps file -> line -> directive.
type ignoreSet map[string]map[int]ignoreDirective

// suppresses reports whether a diagnostic for rule at position is covered
// by a directive on the same line or the line directly above.
func (s ignoreSet) suppresses(rule string, pos token.Position) bool {
	lines := s[pos.Filename]
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if d, ok := lines[line]; ok && d.rules[rule] {
			return true
		}
	}
	return false
}

const ignorePrefix = "lint:ignore"

// collectIgnores parses every //lint:ignore directive in the package and
// reports malformed ones (missing rule or reason) and stale ones (naming a
// rule that does not exist) as diagnostics.
func collectIgnores(p *Package, known map[string]bool) (ignoreSet, []Diagnostic) {
	set := ignoreSet{}
	var bad []Diagnostic
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue
				}
				text, ok = strings.CutPrefix(strings.TrimSpace(text), ignorePrefix)
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{Pos: pos, Rule: "ignore",
						Msg: "malformed directive: want //lint:ignore <rule> <reason>"})
					continue
				}
				d := ignoreDirective{rules: map[string]bool{}}
				for _, r := range strings.Split(fields[0], ",") {
					d.rules[r] = true
					if !known[r] {
						bad = append(bad, Diagnostic{Pos: pos, Rule: "ignore",
							Msg: fmt.Sprintf("directive names unknown rule %q: it suppresses nothing", r)})
					}
				}
				if set[pos.Filename] == nil {
					set[pos.Filename] = map[int]ignoreDirective{}
				}
				set[pos.Filename][pos.Line] = d
			}
		}
	}
	return set, bad
}

// --- shared AST/type helpers ---

// usedPkg returns the package an identifier refers to when it names an
// import, or nil.
func usedPkg(info *types.Info, id *ast.Ident) *types.Package {
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported()
	}
	return nil
}

// pkgSelector returns the selected name when sel is a qualified reference
// into the package with the given import path ("" when it is not).
func pkgSelector(info *types.Info, sel *ast.SelectorExpr, pkgPath string) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if p := usedPkg(info, id); p != nil && p.Path() == pkgPath {
		return sel.Sel.Name
	}
	return ""
}

// calleeFunc resolves the static callee of a call, or nil for dynamic
// calls, conversions, and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// walkStack traverses root calling fn with each node and its ancestor
// stack (outermost first, excluding the node itself).
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}

// isFloat64 reports whether t's underlying type is float64.
func isFloat64(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Float64
}

// funcKey names a function uniquely across the module as
// "pkgpath.[Recv.]Name". Module analyzers key cross-package maps by this
// string instead of *types.Func identity: packages with in-package test
// files are type-checked twice (see LoadModule), so the same function has
// two distinct objects — one per view — but a single key.
func funcKey(fn *types.Func) string {
	if recv := recvTypeName(fn); recv != "" {
		return fn.Pkg().Path() + "." + recv + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// shortFuncKey is funcKey without the package path, for diagnostics.
func shortFuncKey(fn *types.Func) string {
	if recv := recvTypeName(fn); recv != "" {
		return recv + "." + fn.Name()
	}
	return fn.Name()
}

// recvTypeName returns the name of fn's receiver type ("" for plain
// functions), with any pointer indirection stripped.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// hasDirective reports whether a comment group carries a //lint:<name>
// directive; anything after the name on its line is free-form rationale.
func hasDirective(cg *ast.CommentGroup, name string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		text, ok := strings.CutPrefix(c.Text, "//")
		if !ok {
			continue
		}
		rest, ok := strings.CutPrefix(strings.TrimSpace(text), "lint:"+name)
		if ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
			return true
		}
	}
	return false
}

// --- the module call graph ---

// eachFunc calls fn for every function and method with a body in the
// non-test files of pkgs: the code the call-graph rules analyze.
func eachFunc(pkgs []*Package, fn func(p *Package, fd *ast.FuncDecl, obj *types.Func)) {
	for _, p := range pkgs {
		if isTestPackage(p) {
			continue
		}
		for _, f := range p.Files {
			if isTestFile(p, f) {
				continue
			}
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
						fn(p, fd, obj)
					}
				}
			}
		}
	}
}

// callRef is one static call to a module-local function.
type callRef struct {
	pos  token.Pos
	key  string // funcKey of the callee
	name string // shortFuncKey of the callee, for diagnostics
}

// callGraph maps each function's funcKey to its static calls into the
// module.
type callGraph map[string][]callRef

// fixpoint applies step to every call edge, callers in key order, until a
// whole pass changes nothing. It is the one loop that carries a fact (an
// allocation, an escape, a set of acquired locks) from callees up to all
// their transitive callers; step reports whether it changed the caller.
func (g callGraph) fixpoint(step func(caller string, c callRef) bool) {
	callers := sortedKeys(g)
	for changed := true; changed; {
		changed = false
		for _, caller := range callers {
			for _, c := range g[caller] {
				if step(caller, c) {
					changed = true
				}
			}
		}
	}
}

// propagate gives every transitive caller of a function with a reason a
// reason of its own: "calls <callee>, which <callee's reason>".
func (g callGraph) propagate(reason map[string]string) {
	g.fixpoint(func(caller string, c callRef) bool {
		if reason[caller] != "" || reason[c.key] == "" {
			return false
		}
		reason[caller] = fmt.Sprintf("calls %s, which %s", c.name, reason[c.key])
		return true
	})
}

// sharesModule reports whether calleePath lives in the same module as the
// package at pkgPath, judged by the first path segment: both real loads
// ("split/...") and fixture loads share one module prefix.
func sharesModule(calleePath, pkgPath string) bool {
	callee, _, _ := strings.Cut(calleePath, "/")
	pkg, _, _ := strings.Cut(pkgPath, "/")
	return callee == pkg
}

// isTestFile reports whether f is a _test.go file of p.
func isTestFile(p *Package, f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go")
}

// isTestPackage reports whether p is an external _test package.
func isTestPackage(p *Package) bool {
	return strings.HasSuffix(p.Name, "_test")
}

// sortedKeys returns the keys of m in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
