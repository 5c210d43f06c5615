package lint

import (
	"cmp"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Locks guards every mutex in the module against the deadlocks the race
// detector only finds when two paths collide at runtime. While a
// sync.Mutex or RWMutex is held it flags
//
//   - channel sends (a full or unbuffered channel blocks the lock owner),
//   - calls to any Emit method (trace sinks take their own locks and may
//     call back into the caller),
//   - calls through function-typed values (caller-supplied code runs
//     under the lock), and
//   - calls into module-local functions that send or emit, through any
//     chain of module-local calls.
//
// The fix is the buffer-and-flush pattern: record work under the lock,
// release it, then emit, send or call.
//
// Mutexes are named by their owning type ("serve.Server.mu"), so every
// method agrees on one node per lock. A lock acquired while others are
// held, directly or through a call, adds an edge to the module's
// acquisition graph. A self-edge is a non-reentrant re-acquisition, and
// each cyclic strongly connected component (Tarjan) is an ABBA lock-order
// cycle, reported once at its first edge.
var Locks = &Analyzer{
	Name: "locks",
	Doc:  "no channel send, sink Emit or function-value call while a mutex is held; no re-acquisition or lock-order cycle",
	Run:  runLocks,
}

func runLocks(pkgs []*Package, report ModuleReportFunc) {
	reportLockCycles(lockGraph(pkgs, report), report)
}

// lockEdge is one acquisition-order observation: `to` was acquired at pos
// (in package p) while `from` was held; via names the callee of an
// indirect edge.
type lockEdge struct {
	from, to string
	p        *Package
	pos      token.Pos
	via      string
}

// heldSite is an acquisition of lock, or a call, made with held locked.
type heldSite struct {
	pos  token.Pos
	held []string
	lock string
	call callRef
	emit bool // the call is an Emit, which the walk has reported already
}

// lockGraph walks every function once, reports the direct escapes and the
// calls that reach one, and returns the acquisition graph's edges in source
// order (the order of the packages' shared file set).
func lockGraph(pkgs []*Package, report ModuleReportFunc) []lockEdge {
	var walks []*lockWalk
	graph := callGraph{}
	escape := map[string]string{}
	acquires := map[string]map[string]bool{}
	eachFunc(pkgs, func(p *Package, fd *ast.FuncDecl, fn *types.Func) {
		w := &lockWalk{p: p, report: report, local: p.Types.Name() + "." + shortFuncKey(fn),
			acquires: map[string]bool{}}
		w.stmts(fd.Body.List, nil)
		key := funcKey(fn)
		walks, graph[key], acquires[key] = append(walks, w), w.calls, w.acquires
		if w.escape != "" {
			escape[key] = w.escape
		}
	})
	graph.propagate(escape)
	graph.fixpoint(func(caller string, c callRef) bool {
		changed := false
		for a := range acquires[c.key] {
			if !acquires[caller][a] {
				acquires[caller][a] = true
				changed = true
			}
		}
		return changed
	})

	var edges []lockEdge
	for _, w := range walks {
		for _, s := range w.held {
			to := acquires[s.call.key]
			if s.lock != "" {
				to = map[string]bool{s.lock: true}
			}
			for a := range to {
				for _, h := range s.held {
					edges = append(edges, lockEdge{from: h, to: a, p: w.p, pos: s.pos, via: s.call.name})
				}
			}
			if reason := escape[s.call.key]; reason != "" && !s.emit {
				report(w.p, s.pos, "call to %s with %s held reaches an escape: it %s; buffer under the lock and flush after unlocking",
					s.call.name, strings.Join(s.held, ", "), reason)
			}
		}
	}
	slices.SortFunc(edges, func(a, b lockEdge) int {
		return cmp.Or(cmp.Compare(a.pos, b.pos), strings.Compare(a.from, b.from),
			strings.Compare(a.to, b.to), strings.Compare(a.via, b.via))
	})
	return edges
}

// reportLockCycles reports the first self-edge of each mutex as a
// re-acquisition, and each cyclic strongly connected component once, at
// its first edge.
func reportLockCycles(edges []lockEdge, report ModuleReportFunc) {
	adj := map[string][]string{}
	reacquired := map[string]bool{}
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
		if e.from == e.to && !reacquired[e.to] {
			reacquired[e.to] = true
			via := ""
			if e.via != "" {
				via = " via " + e.via
			}
			report(e.p, e.pos, "%s re-acquired%s while already held: sync mutexes are not reentrant, this deadlocks", e.to, via)
		}
	}
	for _, comp := range stronglyConnected(adj) {
		if len(comp) < 2 {
			continue
		}
		sort.Strings(comp)
		for _, e := range edges {
			if e.from == e.to || !slices.Contains(comp, e.from) || !slices.Contains(comp, e.to) {
				continue
			}
			through := ""
			if e.via != "" {
				through = " (through " + e.via + ")"
			}
			report(e.p, e.pos,
				"lock-order cycle among {%s}: %s is acquired%s while %s is held here, and another path acquires them in the opposite order; pick one global order",
				strings.Join(comp, ", "), e.to, through, e.from)
			break
		}
	}
}

// stronglyConnected returns Tarjan's strongly connected components of the
// graph. Which nodes share a component does not depend on the order the
// nodes are visited in, so none is imposed.
func stronglyConnected(adj map[string][]string) [][]string {
	index, low := map[string]int{}, map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var comps [][]string
	var visit func(v string)
	visit = func(v string) {
		n := len(index)
		index[v], low[v] = n, n
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				visit(w)
				low[v] = min(low[v], low[w])
			} else if onStack[w] {
				low[v] = min(low[v], index[w])
			}
		}
		if low[v] != index[v] {
			return
		}
		var comp []string
		for {
			w := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			onStack[w] = false
			comp = append(comp, w)
			if w == v {
				break
			}
		}
		comps = append(comps, comp)
	}
	for v := range adj {
		if _, seen := index[v]; !seen {
			visit(v)
		}
	}
	return comps
}

// lockWalk tracks which mutexes are held through one function body. It is
// a small abstract interpreter: branches fork the held-set and merge with
// a union (held on any live path counts), and paths ending in a return or
// branch statement drop out of the merge. It reports the direct escapes as
// it meets them and records the rest for the module pass.
type lockWalk struct {
	p      *Package
	report ModuleReportFunc
	local  string // prefix naming the function's local mutexes
	// acquires is every mutex the body locks, on any path.
	acquires map[string]bool
	// escape is non-empty when the body itself sends or calls Emit.
	escape string
	// calls is every synchronous static call to a module-local function.
	calls []callRef
	// held is every acquisition and module-local call made while at
	// least one mutex was held.
	held []heldSite
}

// stmts walks a statement list from the held-set held and returns the
// resulting held-set and whether the path terminated.
func (w *lockWalk) stmts(list []ast.Stmt, held map[string]bool) (map[string]bool, bool) {
	for _, st := range list {
		var done bool
		if held, done = w.stmt(st, held); done {
			return held, true
		}
	}
	return held, false
}

func (w *lockWalk) stmt(stmt ast.Stmt, held map[string]bool) (map[string]bool, bool) {
	switch st := stmt.(type) {
	case *ast.ExprStmt:
		key, locks, ok := w.lockOp(st.X)
		switch {
		case !ok:
			w.expr(st.X, held)
		case !locks:
			held = copySet(held)
			delete(held, key)
		default:
			w.acquires[key] = true
			if len(held) > 0 {
				w.held = append(w.held, heldSite{pos: st.Pos(), held: sortedKeys(held), lock: key})
			}
			held = copySet(held)
			held[key] = true
		}
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held for the rest of the body,
		// which is what the held-set already says. Other deferred calls
		// run at return time: they count toward the function's summary
		// but are not checked against the current held-set.
		if _, _, ok := w.lockOp(st.Call); !ok {
			w.expr(st.Call, nil)
		}
	case *ast.SendStmt:
		w.send(st, held)
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			w.expr(r, held)
		}
		return held, true
	case *ast.BranchStmt:
		return held, true
	case *ast.BlockStmt:
		return w.stmts(st.List, held)
	case *ast.LabeledStmt:
		return w.stmt(st.Stmt, held)
	case *ast.IfStmt:
		held, _ = w.stmt(st.Init, held)
		w.expr(st.Cond, held)
		thenOut, thenDone := w.stmts(st.Body.List, held)
		elseOut, elseDone := held, false
		if st.Else != nil {
			elseOut, elseDone = w.stmt(st.Else, held)
		}
		switch {
		case thenDone && elseDone:
			return held, true
		case thenDone:
			return elseOut, false
		case elseDone:
			return thenOut, false
		}
		return union(thenOut, elseOut), false
	case *ast.ForStmt:
		held, _ = w.stmt(st.Init, held)
		w.expr(st.Cond, held)
		bodyOut, _ := w.stmts(st.Body.List, held)
		w.stmt(st.Post, bodyOut)
		return union(held, bodyOut), false
	case *ast.RangeStmt:
		w.expr(st.X, held)
		bodyOut, _ := w.stmts(st.Body.List, held)
		return union(held, bodyOut), false
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.cases(st, held)
	case *ast.GoStmt:
		// The goroutine does not hold the caller's locks, but its
		// arguments are evaluated now.
		for _, a := range st.Call.Args {
			w.expr(a, held)
		}
	default:
		w.expr(stmt, held)
	}
	return held, false
}

// cases walks a switch or select: every case forks from the same entry
// held-set, and the merge is the union of the cases that fall out.
func (w *lockWalk) cases(stmt ast.Stmt, held map[string]bool) (map[string]bool, bool) {
	var body *ast.BlockStmt
	switch st := stmt.(type) {
	case *ast.SwitchStmt:
		held, _ = w.stmt(st.Init, held)
		w.expr(st.Tag, held)
		body = st.Body
	case *ast.TypeSwitchStmt:
		held, _ = w.stmt(st.Init, held)
		w.stmt(st.Assign, held)
		body = st.Body
	case *ast.SelectStmt:
		body = st.Body
	}
	out := held
	for _, clause := range body.List {
		var list []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				w.expr(e, held)
			}
			list = c.Body
		case *ast.CommClause:
			if send, ok := c.Comm.(*ast.SendStmt); ok {
				w.send(send, held)
			} else {
				w.expr(c.Comm, held)
			}
			list = c.Body
		}
		if caseOut, done := w.stmts(list, held); !done {
			out = union(out, caseOut)
		}
	}
	return out, false
}

// send handles a channel send, as a statement or as a select case.
func (w *lockWalk) send(st *ast.SendStmt, held map[string]bool) {
	if w.escape == "" {
		w.escape = "sends on a channel"
	}
	if len(held) > 0 {
		w.report(w.p, st.Pos(), "channel send with %s held: a blocked receiver deadlocks the lock owner; buffer and send after unlocking",
			strings.Join(sortedKeys(held), ", "))
	}
	w.expr(st.Chan, held)
	w.expr(st.Value, held)
}

// expr handles the calls in an expression evaluated with held locked.
// Function-literal bodies are skipped: they run when called, and a
// synchronous call of one is a function-value call.
func (w *lockWalk) expr(n ast.Node, held map[string]bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			w.call(n, held)
		}
		return true
	})
}

func (w *lockWalk) call(call *ast.CallExpr, held map[string]bool) {
	fn := calleeFunc(w.p.Info, call)
	if fn == nil {
		if name := funcValueName(w.p.Info, call); name != "" && len(held) > 0 {
			w.report(w.p, call.Pos(), "function value %s called with %s held: caller-supplied code must not run under the lock",
				name, strings.Join(sortedKeys(held), ", "))
		}
		return
	}
	emit := isEmitMethod(fn)
	if emit {
		if w.escape == "" {
			w.escape = "calls " + fn.Name()
		}
		if len(held) > 0 {
			w.report(w.p, call.Pos(), "sink %s called with %s held: the sink takes its own locks and may call back; buffer events and flush after unlocking",
				fn.Name(), strings.Join(sortedKeys(held), ", "))
		}
	}
	if fn.Pkg() == nil || !sharesModule(fn.Pkg().Path(), w.p.Path) {
		return
	}
	c := callRef{call.Pos(), funcKey(fn), shortFuncKey(fn)}
	w.calls = append(w.calls, c)
	if len(held) > 0 {
		w.held = append(w.held, heldSite{pos: c.pos, held: sortedKeys(held), call: c, emit: emit})
	}
}

// lockOp recognizes x.Lock()/x.RLock()/x.Unlock()/x.RUnlock() on a sync
// mutex and returns the mutex's name and whether the call acquires it.
func (w *lockWalk) lockOp(e ast.Expr) (key string, locks, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", false, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	fn := calleeFunc(w.p.Info, call)
	if !isSel || fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false, false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return w.lockName(sel.X), true, true
	case "Unlock", "RUnlock":
		return w.lockName(sel.X), false, true
	}
	return "", false, false
}

// lockName names the mutex x so every function agrees on one node per
// lock: fields become "pkg.Type.field", package-level mutexes "pkg.name",
// and function-local ones carry the owning function's name so unrelated
// locals never alias.
func (w *lockWalk) lockName(x ast.Expr) string {
	switch x := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		t := w.p.Info.TypeOf(x.X)
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + x.Sel.Name
		}
	case *ast.Ident:
		if v, ok := w.p.Info.Uses[x].(*types.Var); ok {
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Name() + "." + x.Name
			}
			return w.local + ":" + x.Name
		}
	}
	return w.p.Types.Name() + "." + types.ExprString(x)
}

// funcValueName returns the name of the function-typed variable, parameter
// or field a dynamic call goes through ("" for anything else).
func funcValueName(info *types.Info, call *ast.CallExpr) string {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return ""
	}
	if v, ok := info.Uses[id].(*types.Var); ok {
		if _, isSig := v.Type().Underlying().(*types.Signature); isSig {
			return id.Name
		}
	}
	return ""
}

// isEmitMethod reports whether fn is a method named Emit.
func isEmitMethod(fn *types.Func) bool {
	if fn.Name() != "Emit" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

func copySet(set map[string]bool) map[string]bool {
	out := make(map[string]bool, len(set)+1)
	for k := range set {
		out[k] = true
	}
	return out
}

func union(a, b map[string]bool) map[string]bool {
	out := copySet(a)
	for k := range b {
		out[k] = true
	}
	return out
}
