package lint

import (
	"go/ast"
	"go/types"
	"strings"
	"unicode"
)

// Msunits enforces the repo-wide time convention: scheduler and simulator
// times are float64 milliseconds. Two checks keep that invariant visible in
// the type surface:
//
//  1. Exported struct fields and parameters of exported functions whose
//     name says "this is a time" (…Wait, …Latency, …Interval, …) but whose
//     float64 type cannot — they must carry an explicit unit suffix
//     (canonically Ms; S is accepted for wall-clock seconds at API edges
//     like Health.UptimeS).
//  2. time.Duration must not silently mix into ms-float arithmetic:
//     time.Duration(msFloat) reinterprets milliseconds as nanoseconds, and
//     float64(duration) yields nanoseconds — both need an explicit
//     float64(time.Millisecond)-style unit factor in the same expression.
var Msunits = &Analyzer{
	Name: "msunits",
	Doc:  "time-valued float64 names carry a unit suffix; no Duration/ms-float mixing",
	Run:  runMsunits,
}

// unitSuffixes are accepted trailing camel-case words that name a unit.
var unitSuffixes = map[string]bool{
	"ms": true, "ns": true, "us": true, "s": true, "sec": true, "secs": true,
}

// timeWords are trailing camel-case words that mark a name as time-valued.
var timeWords = map[string]bool{
	"time": true, "at": true, "wait": true, "waited": true, "waiting": true,
	"latency": true, "deadline": true, "timeout": true, "delay": true,
	"elapsed": true, "interval": true, "duration": true, "period": true,
	"uptime": true, "age": true,
}

// splitCamel splits a Go identifier into its camel-case words.
func splitCamel(name string) []string {
	runes := []rune(name)
	var words []string
	start := 0
	for i := 1; i < len(runes); i++ {
		prev, cur := runes[i-1], runes[i]
		boundary := unicode.IsUpper(cur) &&
			(!unicode.IsUpper(prev) ||
				(i+1 < len(runes) && unicode.IsLower(runes[i+1])))
		if boundary {
			words = append(words, string(runes[start:i]))
			start = i
		}
	}
	return append(words, string(runes[start:]))
}

// needsUnitSuffix reports whether a float64-typed name reads as a time but
// does not end in a unit word.
func needsUnitSuffix(name string) bool {
	words := splitCamel(name)
	last := strings.ToLower(words[len(words)-1])
	return !unitSuffixes[last] && timeWords[last]
}

func runMsunits(pkgs []*Package, report ModuleReportFunc) {
	for _, p := range pkgs {
		for _, f := range p.Files {
			checkNamedTimes(p, f, report)
			checkDurationMixing(p, f, report)
		}
	}
}

// checkNamedTimes applies the naming half of the rule to exported struct
// fields and to the parameters of exported functions and methods.
func checkNamedTimes(p *Package, f *ast.File, report ModuleReportFunc) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.StructType:
			for _, field := range n.Fields.List {
				for _, name := range field.Names {
					if !name.IsExported() {
						continue
					}
					obj := p.Info.Defs[name]
					if obj == nil || !isFloat64(obj.Type()) {
						continue
					}
					if needsUnitSuffix(name.Name) {
						report(p, name.Pos(), "exported time-valued float64 field %s does not name its unit; add the Ms suffix", name.Name)
					}
				}
			}
		case *ast.FuncDecl:
			if !n.Name.IsExported() || n.Type.Params == nil {
				return true
			}
			for _, field := range n.Type.Params.List {
				for _, name := range field.Names {
					obj := p.Info.Defs[name]
					if obj == nil || !isFloat64(obj.Type()) {
						continue
					}
					if needsUnitSuffix(name.Name) {
						report(p, name.Pos(), "time-valued float64 parameter %s of exported %s does not name its unit; add the Ms suffix", name.Name, n.Name.Name)
					}
				}
			}
		}
		return true
	})
}

// checkDurationMixing applies the conversion half of the rule.
func checkDurationMixing(p *Package, f *ast.File, report ModuleReportFunc) {
	walkStack(f, func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return
		}
		arg := call.Args[0]
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.SelectorExpr:
			// time.Duration(<float64 expr>) without a unit factor treats
			// a millisecond value as nanoseconds.
			if !isTypeName(p.Info, fun.Sel, "time", "Duration") {
				return
			}
			if t, ok := p.Info.Types[arg]; !ok || !isFloat64(t.Type) {
				return
			}
			if !mentionsTimeUnit(p.Info, arg) {
				report(p, call.Pos(), "time.Duration(<float64>) reads a millisecond value as nanoseconds; multiply by float64(time.Millisecond) in the conversion")
			}
		case *ast.Ident:
			// float64(<time.Duration expr>) without a unit divisor in the
			// surrounding arithmetic yields nanoseconds.
			if obj, ok := p.Info.Uses[fun].(*types.TypeName); !ok || obj.Name() != "float64" || obj.Pkg() != nil {
				return
			}
			if t, ok := p.Info.Types[arg]; !ok || !isDuration(t.Type) {
				return
			}
			if !mentionsTimeUnit(p.Info, enclosingArithmetic(call, stack)) {
				report(p, call.Pos(), "float64(<time.Duration>) yields nanoseconds; divide by float64(time.Millisecond) in the same expression")
			}
		}
	})
}

// isTypeName reports whether id resolves to the named type pkg.name.
func isTypeName(info *types.Info, id *ast.Ident, pkgPath, name string) bool {
	tn, ok := info.Uses[id].(*types.TypeName)
	return ok && tn.Name() == name && tn.Pkg() != nil && tn.Pkg().Path() == pkgPath
}

// isDuration reports whether t is time.Duration.
func isDuration(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Duration" && obj.Pkg() != nil && obj.Pkg().Path() == "time"
}

// enclosingArithmetic climbs from call to the outermost binary/paren
// expression containing it, so a unit factor anywhere in the same
// arithmetic chain legitimizes the conversion.
func enclosingArithmetic(call ast.Expr, stack []ast.Node) ast.Node {
	var top ast.Node = call
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.BinaryExpr, *ast.ParenExpr:
			top = stack[i]
		default:
			return top
		}
	}
	return top
}

// mentionsTimeUnit reports whether the subtree references one of the time
// package's unit constants (time.Millisecond, time.Second, ...).
func mentionsTimeUnit(info *types.Info, root ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch pkgSelector(info, sel, "time") {
		case "Nanosecond", "Microsecond", "Millisecond", "Second", "Minute", "Hour":
			found = true
		}
		return !found
	})
	return found
}
