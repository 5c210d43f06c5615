package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one type-checked compilation unit: a package (augmented with
// its in-package test files) or an external _test package.
type Package struct {
	// Path is the import path ("split/internal/sched"). External test
	// packages share the path of the package they test.
	Path string
	// Rel is the module-relative directory ("" for the module root,
	// "internal/sched", "cmd/splitd", ...). Only noclock and vocab read
	// it, and a package loaded standalone can simulate any location.
	Rel string
	// Name is the package name ("sched", "sched_test", "main").
	Name  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Module is a fully loaded and type-checked module.
type Module struct {
	Dir  string
	Path string
	Fset *token.FileSet
	// Packages is every unit in dependency order, in-package test files
	// included, external test packages as separate trailing units.
	Packages []*Package
}

// unit is a pre-type-check compilation unit. In-package test files are kept
// separate from the base files: importers always see the base-only package
// (as the go toolchain arranges), which keeps the module-local import graph
// acyclic even when test files import packages that import this one.
type unit struct {
	dir, rel, path, name string
	xtest                bool
	files                []*ast.File
	testFiles            []*ast.File     // in-package _test.go files
	deps                 map[string]bool // module-local imports of files
	testDeps             map[string]bool // module-local imports of testFiles
}

func (u *unit) id() string {
	if u.xtest {
		return u.path + " [xtest]"
	}
	return u.path
}

// LoadModule parses and type-checks every package below dir, which must
// contain a go.mod. Directories named testdata or vendor and hidden
// directories are skipped, matching go-toolchain conventions.
func LoadModule(dir string) (*Module, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var units []*unit
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != dir && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		us, err := parseDir(fset, path, dir, modPath)
		if err != nil {
			return err
		}
		units = append(units, us...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	units, err = sortUnits(units)
	if err != nil {
		return nil, err
	}
	imp := newModuleImporter(fset, modPath)
	mod := &Module{Dir: dir, Path: modPath, Fset: fset}
	// Pass 1: base packages only, in dependency order, so every importer
	// resolves module-local paths to the non-test version of its deps.
	basePkg := map[string]*Package{}
	for _, u := range units {
		if u.xtest {
			continue
		}
		p, err := checkUnit(fset, u, u.files, imp)
		if err != nil {
			return nil, err
		}
		imp.local[u.path] = p.Types
		basePkg[u.path] = p
	}
	// Pass 2: units with in-package test files are re-checked with those
	// files added; that augmented view is what analyzers see. Units without
	// test files reuse the pass-1 result. External test packages come last.
	for _, u := range units {
		var p *Package
		switch {
		case u.xtest:
			var err error
			if p, err = checkUnit(fset, u, u.files, imp); err != nil {
				return nil, err
			}
		case len(u.testFiles) > 0:
			var err error
			all := append(append([]*ast.File(nil), u.files...), u.testFiles...)
			if p, err = checkUnit(fset, u, all, imp); err != nil {
				return nil, err
			}
		default:
			p = basePkg[u.path]
		}
		mod.Packages = append(mod.Packages, p)
	}
	return mod, nil
}

// LoadPackage parses and type-checks the single package in dir as if it
// lived at importPath inside module modPath. The package may only import
// the standard library; it is how tests load testdata golden packages.
func LoadPackage(dir, modPath, importPath string) (*Package, error) {
	fset := token.NewFileSet()
	units, err := parseDir(fset, dir, "", "")
	if err != nil {
		return nil, err
	}
	if len(units) != 1 {
		return nil, fmt.Errorf("lint: %s holds %d packages, want 1", dir, len(units))
	}
	u := units[0]
	u.path = importPath
	u.rel = relImportPath(modPath, importPath)
	files := append(append([]*ast.File(nil), u.files...), u.testFiles...)
	p, err := checkUnit(fset, u, files, newModuleImporter(fset, modPath))
	if err != nil {
		return nil, err
	}
	return p, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// relImportPath returns the module-relative form of importPath ("" when it
// is the module root).
func relImportPath(modPath, importPath string) string {
	if importPath == modPath {
		return ""
	}
	return strings.TrimPrefix(importPath, modPath+"/")
}

// parseDir parses the .go files of one directory into at most two units:
// the package itself (with in-package test files) and its external _test
// package. modRoot and modPath are empty for standalone loads.
func parseDir(fset *token.FileSet, dir, modRoot, modPath string) ([]*unit, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	byName := map[string]*unit{}
	var order []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if ignoredByBuildTag(f) {
			continue
		}
		name := f.Name.Name
		u := byName[name]
		if u == nil {
			u = &unit{
				dir: dir, name: name, xtest: strings.HasSuffix(name, "_test"),
				deps: map[string]bool{}, testDeps: map[string]bool{},
			}
			byName[name] = u
			order = append(order, name)
		}
		inPkgTest := !u.xtest && strings.HasSuffix(e.Name(), "_test.go")
		if inPkgTest {
			u.testFiles = append(u.testFiles, f)
		} else {
			u.files = append(u.files, f)
		}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if modPath != "" && (path == modPath || strings.HasPrefix(path, modPath+"/")) {
				if inPkgTest {
					u.testDeps[path] = true
				} else {
					u.deps[path] = true
				}
			}
		}
	}
	var units []*unit
	for _, name := range order {
		u := byName[name]
		if modRoot != "" {
			rel, err := filepath.Rel(modRoot, dir)
			if err != nil {
				return nil, err
			}
			u.rel = filepath.ToSlash(rel)
			if u.rel == "." {
				u.rel = ""
			}
			u.path = modPath
			if u.rel != "" {
				u.path = modPath + "/" + u.rel
			}
		}
		units = append(units, u)
	}
	return units, nil
}

// ignoredByBuildTag reports whether the file's `//go:build` constraint
// excludes it from the default build the linter models: no -race, no
// custom tags. This keeps `ignore` files out and picks exactly one of a
// `race`/`!race` const pair, so the type-checker never sees a
// redeclaration.
func ignoredByBuildTag(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() > f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				return true
			}
			return !expr.Eval(func(string) bool { return false })
		}
	}
	return false
}

// sortUnits orders units so every module-local dependency is checked
// before its importers (external test units after their base package).
func sortUnits(units []*unit) ([]*unit, error) {
	base := map[string]*unit{}
	for _, u := range units {
		if !u.xtest {
			base[u.path] = u
		}
	}
	seen := map[*unit]int{} // 0 new, 1 visiting, 2 done
	var out []*unit
	var visit func(u *unit) error
	visit = func(u *unit) error {
		switch seen[u] {
		case 1:
			return fmt.Errorf("lint: import cycle through %s", u.path)
		case 2:
			return nil
		}
		seen[u] = 1
		deps := make([]string, 0, len(u.deps))
		for d := range u.deps {
			deps = append(deps, d)
		}
		sort.Strings(deps)
		for _, d := range deps {
			if dep := base[d]; dep != nil && dep != u {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		seen[u] = 2
		out = append(out, u)
		return nil
	}
	// Deterministic root order: base packages by path, then xtests.
	ordered := append([]*unit(nil), units...)
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].xtest != ordered[j].xtest {
			return !ordered[i].xtest
		}
		return ordered[i].path < ordered[j].path
	})
	for _, u := range ordered {
		if err := visit(u); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkUnit type-checks the given file view of one unit.
func checkUnit(fset *token.FileSet, u *unit, files []*ast.File, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	var errs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { errs = append(errs, err) },
	}
	tpkg, _ := conf.Check(u.path, fset, files, info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %w (and %d more)", u.id(), errs[0], len(errs)-1)
	}
	return &Package{
		Path:  u.path,
		Rel:   u.rel,
		Name:  u.name,
		Dir:   u.dir,
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// moduleImporter resolves module-local import paths to already-checked
// packages and everything else through the shared standard-library cache.
type moduleImporter struct {
	modPath string
	local   map[string]*types.Package
}

func newModuleImporter(fset *token.FileSet, modPath string) *moduleImporter {
	_ = fset // module positions stay in the caller's fset; see stdImports
	return &moduleImporter{
		modPath: modPath,
		local:   map[string]*types.Package{},
	}
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if path == m.modPath || strings.HasPrefix(path, m.modPath+"/") {
		if p := m.local[path]; p != nil {
			return p, nil
		}
		return nil, fmt.Errorf("lint: module package %q not loaded before its importer", path)
	}
	return importStd(path)
}

// stdImports is the process-wide cache of type-checked standard-library
// packages, shared by every LoadModule/LoadPackage call. Re-importing the
// stdlib dominated repeated loads (every golden test and every analyzer
// run paid it again); one import per path per process keeps
// `splitlint ./...` and the golden suite well under the 10s budget.
// Stdlib object positions resolve against the cache's private FileSet —
// analyzers only ever report positions inside module files, so those
// positions are never rendered. Guarded by a mutex so parallel tests and
// concurrent loads stay race-free.
var stdImports = struct {
	mu    sync.Mutex
	std   types.Importer // compiled export data (fast path)
	src   types.Importer // pure source fallback
	cache map[string]*types.Package
}{}

func importStd(path string) (*types.Package, error) {
	stdImports.mu.Lock()
	defer stdImports.mu.Unlock()
	if stdImports.cache == nil {
		fset := token.NewFileSet()
		stdImports.std = importer.ForCompiler(fset, "gc", nil)
		stdImports.src = importer.ForCompiler(fset, "source", nil)
		stdImports.cache = map[string]*types.Package{}
	}
	if p := stdImports.cache[path]; p != nil {
		return p, nil
	}
	p, err := stdImports.std.Import(path)
	if err != nil {
		if p, err = stdImports.src.Import(path); err != nil {
			return nil, fmt.Errorf("lint: importing %q: %w", path, err)
		}
	}
	stdImports.cache[path] = p
	return p, nil
}
