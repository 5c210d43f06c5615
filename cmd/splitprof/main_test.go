package main

import (
	"strings"
	"testing"
)

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var b strings.Builder
	if err := run(args, &b); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return b.String()
}

func TestTable1Output(t *testing.T) {
	out := runOK(t, "-table1")
	for _, want := range []string{"yolov2", "gpt2", "2534", "67.50", "Long"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q", want)
		}
	}
}

func TestFig2Output(t *testing.T) {
	out := runOK(t, "-fig2", "-model", "vgg19", "-stride", "4")
	if !strings.Contains(out, "observation 1") || !strings.Contains(out, "observation 2") {
		t.Errorf("fig2 output missing observations: %s", out[:120])
	}
}

func TestEq1Output(t *testing.T) {
	out := runOK(t, "-eq1")
	if !strings.Contains(out, "closed form") {
		t.Error("eq1 output missing header")
	}
	if strings.Count(out, "\n") < 6 {
		t.Error("eq1 output too short")
	}
}

func TestCandidatesOutput(t *testing.T) {
	out := runOK(t, "-candidates")
	if !strings.Contains(out, "7260") { // C(121,2) for resnet50 m=3
		t.Errorf("candidate table missing known count:\n%s", out)
	}
}

func TestSweepOutput(t *testing.T) {
	out := runOK(t, "-sweep", "-model", "yolov2", "-blocks", "2", "-count", "200")
	if !strings.Contains(out, "profiled 200 random 2-block candidates") {
		t.Errorf("sweep header wrong:\n%s", out)
	}
	if !strings.Contains(out, "std dev") || !strings.Contains(out, "overhead") {
		t.Error("sweep stats missing")
	}
}

func TestNoActionFails(t *testing.T) {
	var b strings.Builder
	if err := run(nil, &b); err == nil {
		t.Error("no-action invocation succeeded")
	}
}

func TestUnknownModelFails(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-fig2", "-model", "nope"}, &b); err == nil {
		t.Error("unknown model accepted")
	}
	if err := run([]string{"-sweep", "-model", "nope"}, &b); err == nil {
		t.Error("unknown sweep model accepted")
	}
}

func TestBadFlagFails(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-definitely-not-a-flag"}, &b); err == nil {
		t.Error("bad flag accepted")
	}
}
