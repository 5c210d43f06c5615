package lint

import (
	"go/ast"
	"strings"
)

// Noclock keeps the simulation/scheduling core clock-free. The same
// Algorithm-1 code drives both the discrete-event simulator and the
// real-time serving path precisely because internal/sched, internal/gpusim,
// internal/policy and friends never read the wall clock: all times flow in
// as float64 milliseconds on a caller-supplied (virtual or scaled-real)
// clock. Only the real-time layers — internal/serve, internal/obs — and the
// binaries under cmd/ and examples/ may touch time.Now and relatives.
var Noclock = &Analyzer{
	Name: "noclock",
	Doc:  "no wall-clock reads or sleeps outside the real-time serving packages",
	Run:  runNoclock,
}

// clockFuncs are the time package entry points that read or wait on the
// wall clock. Pure data types (time.Duration, time.Millisecond) stay legal
// everywhere — the unit conversions in allowed packages depend on them.
var clockFuncs = map[string]bool{
	"Now": true, "Sleep": true, "Since": true, "Until": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// clockAllowed reports whether the module-relative directory is a
// real-time layer that may legitimately observe the wall clock.
func clockAllowed(rel string) bool {
	if rel == "internal/serve" || rel == "internal/obs" {
		return true
	}
	return strings.HasPrefix(rel, "cmd/") || strings.HasPrefix(rel, "examples/")
}

func runNoclock(pkgs []*Package, report ModuleReportFunc) {
	for _, p := range pkgs {
		if clockAllowed(p.Rel) {
			continue
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if name := pkgSelector(p.Info, sel, "time"); clockFuncs[name] {
					report(p, sel.Pos(), "time.%s in a virtual-time package: keep sim/sched code clock-free and take times as float64 ms arguments", name)
				}
				return true
			})
		}
	}
}
