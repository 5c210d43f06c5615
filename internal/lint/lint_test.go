package lint

import (
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata golden files")

// goldenCases pairs each testdata package with the module location it
// simulates and the rule it exercises. Loading the same source at a
// different import path is how the path-scoped rules get negative coverage,
// and how the unscoped locks rule shows its findings do not depend on one.
var goldenCases = []struct {
	name       string
	dir        string
	importPath string
	rule       *Analyzer
	golden     string
}{
	{"noclock", "noclock", "split/internal/policy", Noclock, "expect.txt"},
	{"noclock-allowed", "noclock", "split/cmd/splitd", Noclock, "expect_allowed.txt"},
	{"norandglobal", "norandglobal", "split/internal/workload", Norandglobal, "expect.txt"},
	{"msunits", "msunits", "split/internal/core", Msunits, "expect.txt"},
	{"errwrap", "errwrap", "split/internal/metrics", Errwrap, "expect.txt"},
	{"ignore", "ignore", "split/internal/workload", Norandglobal, "expect.txt"},
	{"hotalloc", "hotalloc", "split/internal/sched", Hotalloc, "expect.txt"},
	// The locks rule has no path scope: each fixture reports the same
	// findings at an import path outside the two scopes the rule replaced
	// (trace) and at ones inside them.
	{"lockdiscipline", "lockdiscipline", "split/internal/serve", Locks, "expect.txt"},
	{"lockdiscipline-out-of-scope", "lockdiscipline", "split/internal/trace", Locks, "expect.txt"},
	{"lockorder-sched", "lockorder", "split/internal/sched", Locks, "expect.txt"},
	{"lockorder-serve", "lockorder", "split/internal/serve", Locks, "expect.txt"},
}

func TestGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", tc.dir)
			p, err := LoadPackage(dir, "split", tc.importPath)
			if err != nil {
				t.Fatalf("LoadPackage(%s): %v", dir, err)
			}
			var b strings.Builder
			for _, d := range Run([]*Package{p}, []*Analyzer{tc.rule}) {
				d.Pos.Filename = filepath.Base(d.Pos.Filename)
				fmt.Fprintln(&b, d.String())
			}
			got := b.String()
			goldenPath := filepath.Join(dir, tc.golden)
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (run go test ./internal/lint -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestVocabModule runs the vocab rule over a miniature module fixture with
// its own trace/obs/policy/serve layers and one seeded drift of every kind
// the rule reports. Loading through LoadModule (not LoadPackage) also
// covers the _test-augmented unit path: serve carries an in-package test
// file whose metric-family literal must still be flagged.
func TestVocabModule(t *testing.T) {
	dir := filepath.Join("testdata", "vocabmod")
	mod, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("LoadModule(%s): %v", dir, err)
	}
	var serve *Package
	for _, p := range mod.Packages {
		if p.Rel == "internal/serve" && p.Name == "serve" {
			serve = p
		}
	}
	if serve == nil || len(serve.Files) != 2 {
		t.Fatalf("serve unit not test-augmented: %+v", serve)
	}
	var b strings.Builder
	for _, d := range Run(mod.Packages, []*Analyzer{Vocab}) {
		if rel, err := filepath.Rel(mod.Dir, d.Pos.Filename); err == nil {
			d.Pos.Filename = filepath.ToSlash(rel)
		}
		fmt.Fprintln(&b, d.String())
	}
	got := b.String()
	goldenPath := filepath.Join(dir, "expect.txt")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run go test ./internal/lint -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestLoadModule loads the real module and checks the suite passes on it:
// the tree is swept clean, and staying clean is part of `make check`. It
// also checks the locks rule sees across every package: the serving mutex
// is held while the arrival recorder takes its own.
func TestLoadModule(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	mod, err := LoadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if len(mod.Packages) < 20 {
		t.Fatalf("loaded only %d packages, expected the whole module", len(mod.Packages))
	}
	for _, d := range Run(mod.Packages, All()) {
		t.Errorf("unexpected diagnostic: %s", d)
	}
	const from, to = "serve.Server.mu", "workload.Recorder.mu"
	found := false
	for _, e := range lockGraph(mod.Packages, func(*Package, token.Pos, string, ...any) {}) {
		found = found || e.from == from && e.to == to
	}
	if !found {
		t.Errorf("acquisition graph lacks the edge %s -> %s", from, to)
	}
}

func TestSplitCamel(t *testing.T) {
	cases := map[string][]string{
		"StartupDelay": {"Startup", "Delay"},
		"WarmupMs":     {"Warmup", "Ms"},
		"UptimeS":      {"Uptime", "S"},
		"e2eMs":        {"e2e", "Ms"},
		"alpha":        {"alpha"},
		"MeanRR":       {"Mean", "RR"},
	}
	for in, want := range cases {
		got := splitCamel(in)
		if len(got) != len(want) {
			t.Errorf("splitCamel(%q) = %v, want %v", in, got, want)
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("splitCamel(%q) = %v, want %v", in, got, want)
				break
			}
		}
	}
}

// BenchmarkLoadModule measures a full parse-and-type-check of the real
// module — the cost every `splitlint ./...` run and golden test pays. The
// shared stdlib import cache (see stdImports) is warmed by the first
// iteration, matching the steady state the 10s CI budget is set against.
func BenchmarkLoadModule(b *testing.B) {
	root := filepath.Join("..", "..")
	for i := 0; i < b.N; i++ {
		mod, err := LoadModule(root)
		if err != nil {
			b.Fatal(err)
		}
		if len(mod.Packages) < 20 {
			b.Fatalf("loaded only %d packages", len(mod.Packages))
		}
	}
}
