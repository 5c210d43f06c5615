package main

import (
	"net"
	"path/filepath"
	"strings"
	"testing"

	"split/internal/core"
	"split/internal/engine"
	"split/internal/onnxlite"
	"split/internal/sched"
	"split/internal/serve"
	"split/internal/zoo"
)

// startTestServer spins an in-process SPLIT server at 100x acceleration and
// returns its address.
func startTestServer(t *testing.T) string {
	t.Helper()
	dep, err := core.DefaultPipeline().Deploy()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(serve.Config{
		Knobs:     engine.Knobs{Alpha: 4, Elastic: sched.DefaultElastic()},
		Catalog:   dep.Catalog,
		TimeScale: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(l); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	return srv.Addr()
}

func TestSingleInference(t *testing.T) {
	addr := startTestServer(t)
	var b strings.Builder
	if err := run([]string{"-addr", addr, "-model", "yolov2"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "yolov2") || !strings.Contains(out, "rr=") {
		t.Errorf("inference output wrong: %s", out)
	}
}

func TestLoadGeneration(t *testing.T) {
	addr := startTestServer(t)
	var b strings.Builder
	err := run([]string{
		"-addr", addr, "-load", "-count", "20",
		"-interval", "200", "-timescale", "0.01", "-seed", "2",
	}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "completed 20/20 requests") {
		t.Errorf("load output: %s", out)
	}
	if !strings.Contains(out, "response ratio") || !strings.Contains(out, "violation rate") {
		t.Error("load summary incomplete")
	}
}

func TestListAndStats(t *testing.T) {
	addr := startTestServer(t)
	var b strings.Builder
	if err := run([]string{"-addr", addr, "-list"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "vgg19") || !strings.Contains(b.String(), "blocks=3") {
		t.Errorf("list output: %s", b.String())
	}
	b.Reset()
	if err := run([]string{"-addr", addr, "-stats"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "models=5") {
		t.Errorf("stats output: %s", b.String())
	}
}

func TestClientErrors(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-addr", "127.0.0.1:1", "-stats"}, &b); err == nil {
		t.Error("dead server accepted")
	}
	addr := startTestServer(t)
	if err := run([]string{"-addr", addr, "-model", "mystery"}, &b); err == nil {
		t.Error("unknown model accepted")
	}
	if err := run([]string{"-addr", addr}, &b); err == nil {
		t.Error("no action accepted")
	}
}

func TestDeployGraphAndModelStats(t *testing.T) {
	addr := startTestServer(t)
	// Write a graph artifact and upload it for server-side splitting.
	dir := t.TempDir()
	path := filepath.Join(dir, "resnet50.graph.json")
	if err := onnxlite.SaveGraph(path, zoo.MustLoad("resnet50")); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run([]string{"-addr", addr, "-deploy-graph", path, "-blocks", "2"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "deployed resnet50: blocks=2") {
		t.Errorf("deploy output: %s", b.String())
	}
	// Exercise the uploaded model then read the per-model digest.
	b.Reset()
	if err := run([]string{"-addr", addr, "-model", "yolov2"}, &b); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if err := run([]string{"-addr", addr, "-model-stats"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "yolov2") || !strings.Contains(b.String(), "served=1") {
		t.Errorf("model-stats output: %s", b.String())
	}
}
