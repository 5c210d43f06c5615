package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Hotalloc keeps the grant path allocation-free. SPLIT's preemption-latency
// bound assumes the scheduler reaches the next grant decision in
// microseconds; an allocator visit (or the GC pause it eventually buys) on
// that path is a QoS bug the compiler happily accepts.
//
// A function is marked hot with a directive in its doc comment:
//
//	//lint:hotpath <why this function is on the grant path>
//
// Inside hot functions the rule flags every construct that heap-allocates:
// &-composite literals, slice and map literals, make, closures that capture
// variables, values boxed into interface arguments (the fmt.* and error
// paths), and append inside a loop. Calls are followed transitively through
// the module: a hot function calling an allocating helper is flagged at the
// call site, with the helper's reason. Helpers that are themselves marked
// hot are not re-flagged at their call sites — their bodies are already
// under enforcement. Allocations inside panic(...) arguments are exempt:
// a panicking grant path has already left the fast path. So is anything
// inside the then-branch of `if tracing { ... }` (an identifier or field
// named exactly "tracing"): that is the sanctioned idiom for keeping event
// formatting off the untraced hot path, and the guard itself is what the
// rule pushes call sites toward.
var Hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "no heap allocation in //lint:hotpath functions, transitively through module calls",
	Run:  runHotalloc,
}

// allocSite is one direct allocation inside a function body.
type allocSite struct {
	pos token.Pos
	// what is the full diagnostic text for a site inside a hot function.
	what string
	// verb is the compressed form used when the allocation is reported at
	// a hot call site several frames up ("allocates a slice literal").
	verb string
}

// funcFacts is everything hotalloc knows about one function.
type funcFacts struct {
	p     *Package
	name  string
	hot   bool
	sites []allocSite
	calls []callRef
}

func runHotalloc(pkgs []*Package, report ModuleReportFunc) {
	facts := map[string]*funcFacts{}
	graph := callGraph{}
	// allocVerb is non-empty once a function is known to allocate,
	// directly or transitively; the fixpoint records the call chain in the
	// verb so the report explains *why* a helper allocates.
	allocVerb := map[string]string{}
	var hotKeys []string
	eachFunc(pkgs, func(p *Package, fd *ast.FuncDecl, fn *types.Func) {
		ff := &funcFacts{p: p, name: shortFuncKey(fn), hot: hasDirective(fd.Doc, "hotpath")}
		collectAllocs(p, fd, ff)
		key := funcKey(fn)
		facts[key], graph[key] = ff, ff.calls
		if len(ff.sites) > 0 {
			allocVerb[key] = ff.sites[0].verb
		}
		if ff.hot {
			hotKeys = append(hotKeys, key)
		}
	})
	graph.propagate(allocVerb)

	for _, key := range hotKeys {
		ff := facts[key]
		for _, site := range ff.sites {
			report(ff.p, site.pos, "hot path (%s): %s", ff.name, site.what)
		}
		for _, c := range ff.calls {
			if allocVerb[c.key] == "" || facts[c.key].hot {
				continue
			}
			report(ff.p, c.pos, "hot path (%s): call to %s allocates — it %s; make the helper allocation-free or lift it off the grant path",
				ff.name, c.name, allocVerb[c.key])
		}
	}
}

// collectAllocs walks one function body recording direct allocation sites
// and module-local calls. Function-literal bodies are not entered: their
// code runs when the closure is called, not when the enclosing function
// does — the closure *value* itself is the allocation charged here.
func collectAllocs(p *Package, fd *ast.FuncDecl, ff *funcFacts) {
	walkStack(fd.Body, func(n ast.Node, stack []ast.Node) {
		if insideFuncLit(stack) || insidePanic(p, stack) || insideTracingGuard(n, stack) {
			return
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, isComposite := ast.Unparen(n.X).(*ast.CompositeLit); isComposite {
					ff.sites = append(ff.sites, allocSite{n.Pos(),
						"&-composite literal escapes to the heap; hoist it or reuse a scratch object",
						"heap-allocates a composite literal"})
				}
			}
		case *ast.CompositeLit:
			if len(stack) > 0 {
				if u, ok := stack[len(stack)-1].(*ast.UnaryExpr); ok && u.Op == token.AND {
					return // charged to the &-composite above
				}
			}
			tv, ok := p.Info.Types[n]
			if !ok {
				return
			}
			switch tv.Type.Underlying().(type) {
			case *types.Slice:
				ff.sites = append(ff.sites, allocSite{n.Pos(),
					"slice literal allocates; reuse a scratch buffer",
					"allocates a slice literal"})
			case *types.Map:
				ff.sites = append(ff.sites, allocSite{n.Pos(),
					"map literal allocates; reuse a scratch map",
					"allocates a map literal"})
			}
		case *ast.FuncLit:
			if c := captureCount(p, n); c > 0 {
				ff.sites = append(ff.sites, allocSite{n.Pos(),
					fmt.Sprintf("closure captures %d variable(s) and allocates; hoist it to a method or bind it once at setup", c),
					"allocates a capturing closure"})
			}
		case *ast.CallExpr:
			checkCallAllocs(p, n, stack, ff)
		}
	})
}

// checkCallAllocs handles the three call-shaped allocation sources: make,
// per-iteration append growth, and interface boxing of arguments.
func checkCallAllocs(p *Package, call *ast.CallExpr, stack []ast.Node, ff *funcFacts) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				ff.sites = append(ff.sites, allocSite{call.Pos(),
					"make allocates; preallocate outside the hot path",
					"calls make"})
			case "append":
				if insideLoop(stack) {
					ff.sites = append(ff.sites, allocSite{call.Pos(),
						"append inside a loop grows per iteration; preallocate or reuse a scratch buffer",
						"grows a slice with append inside a loop"})
				}
			}
			return
		}
	}
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	// Record module-local static callees for transitive propagation.
	if fn := calleeFunc(p.Info, call); fn != nil && fn.Pkg() != nil &&
		sharesModule(fn.Pkg().Path(), p.Path) {
		ff.calls = append(ff.calls, callRef{call.Pos(), funcKey(fn), shortFuncKey(fn)})
	}
	checkBoxing(p, call, ff)
}

// checkBoxing flags concrete values passed to interface-typed parameters —
// including fmt-style ...any variadics — which the compiler implements as a
// heap allocation for anything that is not already pointer-shaped or a
// compile-time constant.
func checkBoxing(p *Package, call *ast.CallExpr, ff *funcFacts) {
	tv, ok := p.Info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // a spread slice is passed as-is, nothing boxes
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		atv, ok := p.Info.Types[arg]
		if !ok || atv.Value != nil || atv.IsNil() {
			continue // compile-time constants are backed by static data
		}
		if pointerShaped(atv.Type) {
			continue
		}
		ff.sites = append(ff.sites, allocSite{arg.Pos(),
			fmt.Sprintf("%s boxes into an interface argument and allocates; avoid variadic formatting here or guard it behind a tracing check", types.ExprString(arg)),
			"boxes arguments into interfaces"})
	}
}

// pointerShaped reports whether values of t fit an interface word without
// allocating: pointers, channels, funcs, maps, unsafe pointers, and
// interface values themselves.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// captureCount counts the variables a function literal captures from its
// enclosing function: non-field, non-package-level variables declared
// outside the literal. A closure with zero captures compiles to a static
// function value and never allocates.
func captureCount(p *Package, lit *ast.FuncLit) int {
	seen := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // declared inside the literal
		}
		if p.Types.Scope().Lookup(v.Name()) == v {
			return true // package-level variables are not captured
		}
		seen[v] = true
		return true
	})
	return len(seen)
}

// insideFuncLit reports whether any ancestor is a function literal.
func insideFuncLit(stack []ast.Node) bool {
	for _, n := range stack {
		if _, ok := n.(*ast.FuncLit); ok {
			return true
		}
	}
	return false
}

// insidePanic reports whether any ancestor is a call to the panic builtin:
// allocation while constructing a panic message is off the fast path by
// definition.
func insidePanic(p *Package, stack []ast.Node) bool {
	for _, n := range stack {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			continue
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
			if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
				return true
			}
		}
	}
	return false
}

// insideTracingGuard reports whether n sits in the then-branch of an
// `if tracing { ... }` statement (the condition an identifier or field
// selection named exactly "tracing"). Code there runs only when a sink is
// attached, and a recorded event is allowed to cost an allocation.
func insideTracingGuard(n ast.Node, stack []ast.Node) bool {
	for _, anc := range stack {
		ifs, ok := anc.(*ast.IfStmt)
		if !ok || !isTracingCond(ifs.Cond) {
			continue
		}
		if n.Pos() >= ifs.Body.Pos() && n.Pos() < ifs.Body.End() {
			return true
		}
	}
	return false
}

func isTracingCond(cond ast.Expr) bool {
	switch c := ast.Unparen(cond).(type) {
	case *ast.Ident:
		return c.Name == "tracing"
	case *ast.SelectorExpr:
		return c.Sel.Name == "tracing"
	case *ast.BinaryExpr:
		// `spike > 1 && tracing` still only runs its body when tracing.
		return c.Op == token.LAND && (isTracingCond(c.X) || isTracingCond(c.Y))
	}
	return false
}

// insideLoop reports whether the ancestor stack crosses a for/range
// statement. Function-literal ancestors never appear here — collectAllocs
// filters closure interiors out before calling down.
func insideLoop(stack []ast.Node) bool {
	for _, n := range stack {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		}
	}
	return false
}
