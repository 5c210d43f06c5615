package lint

import (
	"go/ast"
	"go/types"
)

// Norandglobal keeps every random draw reproducible. The GA, the workload
// generators, and the property tests are all seeded; one call to a global
// math/rand top-level function (whose state is shared and, since Go 1.20,
// randomly seeded) silently breaks bit-reproducibility of experiment
// results across runs. Constructors that build an explicitly seeded
// generator (rand.New, rand.NewSource, rand.NewZipf) are the sanctioned
// entry points.
var Norandglobal = &Analyzer{
	Name: "norandglobal",
	Doc:  "no global math/rand functions; thread an injected seeded *rand.Rand",
	Run:  runNorandglobal,
}

// randConstructors are the math/rand package-level functions that do not
// touch the global generator.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

func runNorandglobal(pkgs []*Package, report ModuleReportFunc) {
	for _, p := range pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				pkg := usedPkg(p.Info, id)
				if pkg == nil || (pkg.Path() != "math/rand" && pkg.Path() != "math/rand/v2") {
					return true
				}
				fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
				if !ok {
					return true // a type like rand.Rand, not a function
				}
				if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
					return true // method on *rand.Rand reached some other way
				}
				if !randConstructors[fn.Name()] {
					report(p, sel.Pos(), "global %s.%s draws from shared, unseeded state and breaks run-to-run reproducibility; use an injected seeded *rand.Rand", pkg.Name(), fn.Name())
				}
				return true
			})
		}
	}
}
