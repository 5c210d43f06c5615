package main

import (
	"bytes"
	"strings"
	"testing"
)

func runLint(t *testing.T, dir string, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(dir, args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestRepoIsClean(t *testing.T) {
	code, stdout, stderr := runLint(t, "../..", "./...")
	if code != 0 {
		t.Fatalf("splitlint on this repo: exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("expected no diagnostics, got:\n%s", stdout)
	}
}

// TestBadModule pins one seeded defect per rule family, each reported once
// with its module-relative position.
func TestBadModule(t *testing.T) {
	code, stdout, _ := runLint(t, "testdata/badmod")
	if code != 1 {
		t.Fatalf("splitlint on badmod: exit %d, want 1\n%s", code, stdout)
	}
	want := []string{
		"bad.go:11:32: norandglobal:",
		"bad.go:14:62: errwrap:",
		"internal/policy/clock.go:7:31: noclock:",
		"internal/policy/drop.go:5:29: vocab:",
		"internal/sched/lock.go:16:9: hotalloc: hot path (queue.Pop): make allocates",
		"internal/sched/lock.go:22:2: locks:",
	}
	for _, w := range want {
		if !strings.Contains(stdout, w) {
			t.Errorf("output missing %q:\n%s", w, stdout)
		}
	}
	if n := strings.Count(stdout, "\n"); n != len(want) {
		t.Errorf("got %d diagnostics, want %d:\n%s", n, len(want), stdout)
	}
}

func TestFindsModuleRootFromSubdir(t *testing.T) {
	code, stdout, _ := runLint(t, "testdata/badmod/internal/policy")
	if code != 1 || !strings.Contains(stdout, "noclock:") {
		t.Fatalf("exit %d, want 1 with noclock finding\n%s", code, stdout)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"some/pkg"}, {"-rules", "noclock"}, {"-json"}} {
		if code, _, _ := runLint(t, "testdata/badmod", args...); code != 2 {
			t.Errorf("splitlint %v: exit %d, want 2", args, code)
		}
	}
}
