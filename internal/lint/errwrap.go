package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// Errwrap keeps error chains inspectable. The serving path's typed
// rejections (serve.ErrAdmissionRejected, serve.ErrUnknownModel,
// serve.ErrStopped) only work if wrapping preserves the chain — fmt.Errorf
// must use %w for error operands — and if call sites test with errors.Is
// rather than ==, which breaks the moment a sentinel is wrapped with
// context.
var Errwrap = &Analyzer{
	Name: "errwrap",
	Doc:  "fmt.Errorf wraps errors with %w; sentinels are compared with errors.Is",
	Run:  runErrwrap,
}

func runErrwrap(pkgs []*Package, report ModuleReportFunc) {
	errType := types.Universe.Lookup("error").Type()
	for _, p := range pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					checkErrorf(p, n, errType, report)
				case *ast.BinaryExpr:
					checkSentinelCompare(p, n, errType, report)
				}
				return true
			})
		}
	}
}

// checkErrorf flags fmt.Errorf calls that format an error operand with a
// verb other than %w.
func checkErrorf(p *Package, call *ast.CallExpr, errType types.Type, report ModuleReportFunc) {
	fn := calleeFunc(p.Info, call)
	if fn == nil || fn.FullName() != "fmt.Errorf" || len(call.Args) < 2 {
		return
	}
	tv, ok := p.Info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	verbs, ok := formatVerbs(constant.StringVal(tv.Value))
	if !ok {
		return
	}
	for i, arg := range call.Args[1:] {
		if i >= len(verbs) {
			break
		}
		tv, ok := p.Info.Types[arg]
		if !ok || tv.Type == nil || tv.Type == types.Typ[types.UntypedNil] {
			continue
		}
		if types.AssignableTo(tv.Type, errType) && verbs[i] != 'w' {
			report(p, arg.Pos(), "error operand formatted with %%%c flattens the chain; use %%w so callers can errors.Is/As/Unwrap", verbs[i])
		}
	}
}

// formatVerbs returns the verb consumed by each successive operand of a
// Printf-style format string. It bails out (ok=false) on explicit argument
// indexes, which this repo does not use.
func formatVerbs(format string) ([]byte, bool) {
	var verbs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		// Flags, width, precision; '*' consumes an operand of its own.
		for i < len(format) {
			c := format[i]
			if c == '%' {
				break // literal %%
			}
			if c == '[' {
				return nil, false // explicit argument index
			}
			if c == '*' {
				verbs = append(verbs, '*')
				i++
				continue
			}
			if c == '.' || c == '+' || c == '-' || c == '#' || c == ' ' || c == '0' ||
				(c >= '1' && c <= '9') {
				i++
				continue
			}
			verbs = append(verbs, c)
			break
		}
	}
	return verbs, true
}

// checkSentinelCompare flags ==/!= between error values when one side is a
// package-level sentinel variable (ErrFoo, EOF).
func checkSentinelCompare(p *Package, bin *ast.BinaryExpr, errType types.Type, report ModuleReportFunc) {
	if bin.Op != token.EQL && bin.Op != token.NEQ {
		return
	}
	if !isErrorValue(p.Info, bin.X, errType) || !isErrorValue(p.Info, bin.Y, errType) {
		return
	}
	for _, side := range []ast.Expr{bin.X, bin.Y} {
		if name, ok := sentinelName(p.Info, side); ok {
			report(p, bin.Pos(), "sentinel %s compared with %s; use errors.Is so wrapped errors still match", name, bin.Op)
			return
		}
	}
}

// isErrorValue reports whether e has a (typed, non-nil) error type.
func isErrorValue(info *types.Info, e ast.Expr, errType types.Type) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	if b, isBasic := tv.Type.(*types.Basic); isBasic && b.Kind() == types.UntypedNil {
		return false
	}
	return types.AssignableTo(tv.Type, errType)
}

// sentinelName returns the name of the package-level sentinel error
// variable e refers to, if it is one.
func sentinelName(info *types.Info, e ast.Expr) (string, bool) {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return "", false
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return "", false
	}
	name := v.Name()
	if len(name) >= 3 && name[:3] == "Err" || name == "EOF" {
		return name, true
	}
	return "", false
}
