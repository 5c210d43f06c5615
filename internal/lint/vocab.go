package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// Vocab detects cross-layer vocabulary drift. The decision core
// (internal/engine) and its two drivers — the sim (internal/policy) and the
// serving path (internal/serve) — must describe the decisions they share
// with identical words; this rule pins the words (event kinds need no rule:
// trace.EventKind is an integer, so no string can be typed as one):
//
//   - drop reasons shared by the layers live in internal/trace as Reason*
//     constants. Redeclaring one of their values as an independent string
//     constant (or using the bare literal) in engine, policy or serve is
//     drift;
//   - metric family names ("split_*") passed to obs.Registry
//     Counter/Gauge/GaugeFunc/Histogram outside internal/obs must
//     reference the obs.Metric* constants, so dashboards and tests cannot
//     disagree with the server about a family's spelling.
var Vocab = &Analyzer{
	Name: "vocab",
	Doc:  "sim/serve vocabulary drift: drop reasons and metric families",
	Run:  runVocab,
}

const (
	relTrace  = "internal/trace"
	relObs    = "internal/obs"
	relEngine = "internal/engine"
	relPolicy = "internal/policy"
	relServe  = "internal/serve"
)

func runVocab(pkgs []*Package, report ModuleReportFunc) {
	tracePkg := pkgByRel(pkgs, relTrace)
	obsPkg := pkgByRel(pkgs, relObs)
	checkReasonConstants(pkgs, tracePkg, report)
	checkMetricFamilies(pkgs, obsPkg, report)
}

// pkgByRel returns the (non-external-test) package at the module-relative
// directory, or nil.
func pkgByRel(pkgs []*Package, rel string) *Package {
	for _, p := range pkgs {
		if p.Rel == rel && !isTestPackage(p) {
			return p
		}
	}
	return nil
}

// reasonConsts returns the trace package's exported Reason* string
// constants: value -> name.
func reasonConsts(tracePkg *Package) map[string]string {
	out := map[string]string{}
	scope := tracePkg.Types.Scope()
	for _, name := range scope.Names() {
		if !strings.HasPrefix(name, "Reason") {
			continue
		}
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || c.Val().Kind() != constant.String {
			continue
		}
		out[constant.StringVal(c.Val())] = name
	}
	return out
}

// checkReasonConstants enforces the shared drop-reason vocabulary: no
// redeclaration of a trace.Reason* value in engine, policy or serve, and no
// bare reason literals there.
func checkReasonConstants(pkgs []*Package, tracePkg *Package, report ModuleReportFunc) {
	if tracePkg == nil {
		return
	}
	reasons := reasonConsts(tracePkg)
	if len(reasons) == 0 {
		return
	}
	for _, rel := range []string{relEngine, relPolicy, relServe} {
		p := pkgByRel(pkgs, rel)
		if p == nil {
			continue
		}
		for _, f := range p.Files {
			if isTestFile(p, f) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				tv, ok := p.Info.Types[lit]
				if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
					return true
				}
				if name, isReason := reasons[constant.StringVal(tv.Value)]; isReason {
					report(p, lit.Pos(),
						"drop reason %s spelled as a literal; reference trace.%s so the sim and serve vocabularies cannot drift",
						lit.Value, name)
				}
				return true
			})
		}
	}
}

// checkMetricFamilies flags "split_*" string literals passed as the family
// name to obs.Registry constructors outside internal/obs (test files
// included — a test spelling a family by hand is exactly how dashboards
// drift from the server).
func checkMetricFamilies(pkgs []*Package, obsPkg *Package, report ModuleReportFunc) {
	if obsPkg == nil {
		return
	}
	for _, p := range pkgs {
		if p.Rel == relObs {
			continue
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				fn := calleeFunc(p.Info, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != obsPkg.Path {
					return true
				}
				switch fn.Name() {
				case "Counter", "Gauge", "GaugeFunc", "Histogram":
				default:
					return true
				}
				if recvTypeName(fn) != "Registry" {
					return true
				}
				lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING ||
					!strings.HasPrefix(strings.Trim(lit.Value, `"`), "split_") {
					return true
				}
				report(p, lit.Pos(),
					"metric family %s spelled as a literal; reference the obs.Metric* constant so every layer agrees on the family name",
					lit.Value)
				return true
			})
		}
	}
}
