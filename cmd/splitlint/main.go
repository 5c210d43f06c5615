// Command splitlint runs the project's static-analysis suite (see
// internal/lint) over every package in the module containing the working
// directory.
//
// Usage:
//
//	splitlint [./...]
//
// Exit status: 0 when the tree is clean, 1 when diagnostics were reported,
// 2 on usage or load errors.
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"split/internal/lint"
)

func main() {
	os.Exit(run(".", os.Args[1:], os.Stdout, os.Stderr))
}

// run lints the module containing dir and prints its findings with
// module-relative paths, so the output is stable across machines.
func run(dir string, args []string, stdout, stderr io.Writer) int {
	for _, a := range args {
		if a != "./..." {
			fmt.Fprintf(stderr, "splitlint: unsupported argument %q\nusage: splitlint [./...]\n", a)
			return 2
		}
	}
	root, err := findModuleRoot(dir)
	if err != nil {
		fmt.Fprintf(stderr, "splitlint: %v\n", err)
		return 2
	}
	mod, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintf(stderr, "splitlint: %v\n", err)
		return 2
	}
	diags := lint.Run(mod.Packages, lint.All())
	for _, d := range diags {
		if rel, err := filepath.Rel(root, d.Pos.Filename); err == nil {
			d.Pos.Filename = rel
		}
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "splitlint: %d issue(s)\n", len(diags))
		return 1
	}
	return 0
}

// findModuleRoot ascends from dir to the nearest directory containing go.mod.
func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found in or above %s", dir)
		}
		dir = parent
	}
}
