package main

import (
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"split/internal/metrics"
	"split/internal/obs"
	"split/internal/onnxlite"
	"split/internal/policy"
	"split/internal/serve"
	"split/internal/trace"
)

// httpGet fetches an admin path and returns the body.
func httpGet(t *testing.T, adminAddr, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + adminAddr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestDaemonAdminEndpoint boots splitd with -admin, drives RPC traffic, and
// asserts /metrics, /healthz, /queuez and /tracez contents — including the
// acceptance criterion that the live rolling violation rate equals
// metrics.ViolationRate computed offline over the same completions.
func TestDaemonAdminEndpoint(t *testing.T) {
	dir := t.TempDir()
	if err := onnxlite.SavePlan(filepath.Join(dir, "vgg19.plan.json"), planFor(t, "vgg19", []int{16, 29})); err != nil {
		t.Fatal(err)
	}
	if err := onnxlite.SavePlan(filepath.Join(dir, "yolov2.plan.json"), planFor(t, "yolov2", []int{40})); err != nil {
		t.Fatal(err)
	}

	ready := make(chan string, 1)
	adminReady := make(chan string, 1)
	stop := make(chan struct{})
	out := &syncBuilder{}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-admin", "127.0.0.1:0",
			"-plans", dir,
			"-timescale", "0.005",
		}, out, ready, adminReady, stop)
	}()
	var addr, adminAddr string
	for addr == "" || adminAddr == "" {
		select {
		case addr = <-ready:
		case adminAddr = <-adminReady:
		case err := <-done:
			t.Fatalf("daemon exited early: %v", err)
		case <-time.After(30 * time.Second):
			t.Fatal("daemon did not become ready")
		}
	}
	defer func() {
		close(stop)
		if err := <-done; err != nil {
			t.Fatalf("daemon exit error: %v", err)
		}
	}()

	if body := httpGet(t, adminAddr, "/healthz"); !strings.Contains(body, `"status": "ok"`) {
		t.Errorf("/healthz = %s", body)
	}

	client, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var recs []policy.Record
	for i := 0; i < 6; i++ {
		m := "vgg19"
		if i%3 == 2 {
			m = "yolov2"
		}
		reply, err := client.Infer(m)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, policy.Record{
			ID: reply.ReqID, Model: reply.Model,
			DoneMs: reply.E2EMs, ExtMs: reply.ExtMs,
		})
	}

	prom := httpGet(t, adminAddr, "/metrics")
	for _, want := range []string{
		`split_requests_total{model="vgg19"} 4`,
		`split_requests_total{model="yolov2"} 2`,
		`split_completions_total{model="vgg19"} 4`,
		`split_completions_total{model="yolov2"} 2`,
		"# TYPE split_drops_total counter",
		"# TYPE split_preemptions_total counter",
		"# TYPE split_elastic_suppressed gauge",
		"split_queue_depth 0",
		"split_e2e_ms_count 6",
		"split_wait_ms_count 6",
		"# TYPE split_rolling_violation_rate gauge",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	var snap serve.QueueSnapshot
	if err := json.Unmarshal([]byte(httpGet(t, adminAddr, "/queuez")), &snap); err != nil {
		t.Fatalf("/queuez not valid JSON: %v", err)
	}
	if snap.Served != 6 || snap.Depth != 0 || snap.QoS.Window != 6 {
		t.Errorf("/queuez snapshot = %+v", snap)
	}
	if want := metrics.ViolationRate(recs, snap.Alpha); snap.QoS.ViolationRate != want {
		t.Errorf("live violation rate %v != offline %v", snap.QoS.ViolationRate, want)
	}

	tracez := strings.TrimSpace(httpGet(t, adminAddr, "/tracez"))
	lines := strings.Split(tracez, "\n")
	if len(lines) < 12 {
		t.Fatalf("/tracez has %d events", len(lines))
	}
	var kinds []string
	for _, ln := range lines {
		var ev struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("bad tracez line %q: %v", ln, err)
		}
		kinds = append(kinds, ev.Kind)
	}
	all := strings.Join(kinds, " ")
	for _, want := range []string{"arrive", "start_block", "end_block", "complete"} {
		if !strings.Contains(all, want) {
			t.Errorf("/tracez missing %q events", want)
		}
	}

	// The filtered dump keeps only matching events.
	filtered := strings.TrimSpace(httpGet(t, adminAddr, "/tracez?kind=complete"))
	if n := len(strings.Split(filtered, "\n")); n != 6 {
		t.Errorf("/tracez?kind=complete has %d events, want 6", n)
	}

	// /spanz folds the ring into span trees: six served spans, a clean
	// decomposition, no invariant problems on a live SPLIT stream.
	var tree trace.SpanTree
	if err := json.Unmarshal([]byte(httpGet(t, adminAddr, "/spanz")), &tree); err != nil {
		t.Fatalf("/spanz not valid JSON: %v", err)
	}
	if len(tree.Problems) != 0 {
		t.Errorf("/spanz problems on a live stream: %v", tree.Problems)
	}
	servedSpans := 0
	for _, sp := range tree.Requests {
		if sp.Outcome == trace.SpanOutcomeServed {
			servedSpans++
			if sp.ExecMs <= 0 {
				t.Errorf("span %d served with exec=%v", sp.ReqID, sp.ExecMs)
			}
		}
	}
	if servedSpans != 6 {
		t.Errorf("/spanz served spans = %d, want 6", servedSpans)
	}

	// /timeseriesz reports the same six completions, windowed.
	var series obs.TimeSeriesSnapshot
	if err := json.Unmarshal([]byte(httpGet(t, adminAddr, "/timeseriesz")), &series); err != nil {
		t.Fatalf("/timeseriesz not valid JSON: %v", err)
	}
	arrivals, completions := 0, 0
	for _, w := range series.Windows {
		arrivals += w.Arrivals
		completions += w.Completions
	}
	if arrivals != 6 || completions != 6 {
		t.Errorf("/timeseriesz arrivals=%d completions=%d, want 6/6", arrivals, completions)
	}

	// /healthz identifies the binary.
	var health serve.Health
	if err := json.Unmarshal([]byte(httpGet(t, adminAddr, "/healthz")), &health); err != nil {
		t.Fatal(err)
	}
	if health.Version == "" || health.GoVersion == "" {
		t.Errorf("healthz build info = %+v", health)
	}

	if body := httpGet(t, adminAddr, "/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index = %.80s", body)
	}

	if o := out.String(); !strings.Contains(o, "admin endpoint on http://"+adminAddr) {
		t.Errorf("daemon log missing admin banner: %s", o)
	}
}
