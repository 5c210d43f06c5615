package obs

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"split/internal/modelid"
	"split/internal/trace"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

func TestAdminEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("split_requests_total", "req", "model", "vgg19").Add(2)
	ring := trace.NewRing(16)
	ring.Emit(trace.Event{AtMs: 1, Kind: trace.Arrive, ReqID: 0, Model: modelid.Intern("vgg19")})

	mux := AdminConfig{Registry: reg, Ring: ring,
		Queuez: func() any { return map[string]int{"depth": 3} },
		Health: func() any { return map[string]string{"status": "ok", "mode": "test"} }}.Mux()
	srv := httptest.NewServer(mux)
	defer srv.Close()

	code, ct, body := get(t, srv, "/metrics")
	if code != 200 || !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics: %d %s", code, ct)
	}
	if !strings.Contains(body, `split_requests_total{model="vgg19"} 2`) {
		t.Errorf("/metrics body:\n%s", body)
	}

	code, ct, body = get(t, srv, "/healthz")
	if code != 200 || !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/healthz: %d %s", code, ct)
	}
	var health map[string]string
	if err := json.Unmarshal([]byte(body), &health); err != nil || health["status"] != "ok" {
		t.Errorf("/healthz body %q: %v", body, err)
	}

	code, _, body = get(t, srv, "/queuez")
	var queue map[string]int
	if err := json.Unmarshal([]byte(body), &queue); err != nil || code != 200 || queue["depth"] != 3 {
		t.Errorf("/queuez %d %q: %v", code, body, err)
	}

	code, ct, body = get(t, srv, "/tracez")
	if code != 200 || !strings.HasPrefix(ct, "application/x-ndjson") {
		t.Errorf("/tracez: %d %s", code, ct)
	}
	var ev struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal([]byte(strings.TrimSpace(body)), &ev); err != nil || ev.Kind != "arrive" {
		t.Errorf("/tracez body %q: %v", body, err)
	}

	// pprof index must answer (profile endpoints are exercised implicitly).
	if code, _, _ = get(t, srv, "/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/: %d", code)
	}
}

func TestAdminNilProviders(t *testing.T) {
	srv := httptest.NewServer(AdminConfig{}.Mux())
	defer srv.Close()
	if code, _, body := get(t, srv, "/metrics"); code != 200 || body != "" {
		t.Errorf("/metrics: %d %q", code, body)
	}
	if code, _, body := get(t, srv, "/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz: %d %q", code, body)
	}
	if code, _, _ := get(t, srv, "/queuez"); code != 200 {
		t.Errorf("/queuez: %d", code)
	}
	if code, _, body := get(t, srv, "/tracez"); code != 200 || strings.TrimSpace(body) != "" {
		t.Errorf("/tracez: %d %q", code, body)
	}
	if code, ct, _ := get(t, srv, "/spanz"); code != 200 || !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/spanz: %d %s", code, ct)
	}
	if code, ct, _ := get(t, srv, "/timeseriesz"); code != 200 || !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/timeseriesz: %d %s", code, ct)
	}
}

// ringWithRun seeds a ring with a small two-request, two-model run.
func ringWithRun() *trace.Ring {
	ring := trace.NewRing(64)
	for _, e := range []trace.Event{
		{AtMs: 0, Kind: trace.Arrive, ReqID: 0, Model: modelid.Intern("vgg19")},
		{AtMs: 1, Kind: trace.StartBlock, ReqID: 0, Model: modelid.Intern("vgg19"), Device: 0},
		{AtMs: 2, Kind: trace.Arrive, ReqID: 1, Model: modelid.Intern("yolov2")},
		{AtMs: 5, Kind: trace.EndBlock, ReqID: 0, Model: modelid.Intern("vgg19"), Device: 0},
		{AtMs: 5, Kind: trace.Complete, ReqID: 0, Model: modelid.Intern("vgg19")},
		{AtMs: 5, Kind: trace.StartBlock, ReqID: 1, Model: modelid.Intern("yolov2"), Device: 0},
		{AtMs: 9, Kind: trace.EndBlock, ReqID: 1, Model: modelid.Intern("yolov2"), Device: 0},
		{AtMs: 9, Kind: trace.Complete, ReqID: 1, Model: modelid.Intern("yolov2")},
	} {
		ring.Emit(e)
	}
	return ring
}

// TestAdminTracezFilters exercises ?model=, ?kind= and ?n= on /tracez.
func TestAdminTracezFilters(t *testing.T) {
	srv := httptest.NewServer(AdminConfig{Ring: ringWithRun()}.Mux())
	defer srv.Close()

	lines := func(body string) []string {
		body = strings.TrimSpace(body)
		if body == "" {
			return nil
		}
		return strings.Split(body, "\n")
	}

	if _, _, body := get(t, srv, "/tracez"); len(lines(body)) != 8 {
		t.Errorf("unfiltered /tracez: %d lines, want 8", len(lines(body)))
	}
	_, _, body := get(t, srv, "/tracez?model=vgg19")
	if got := lines(body); len(got) != 4 {
		t.Errorf("model filter: %d lines, want 4: %q", len(got), body)
	} else {
		for _, l := range got {
			if !strings.Contains(l, `"vgg19"`) {
				t.Errorf("model filter leaked: %q", l)
			}
		}
	}
	if _, _, body := get(t, srv, "/tracez?kind=arrive"); len(lines(body)) != 2 {
		t.Errorf("kind filter: %q", body)
	}
	if _, _, body := get(t, srv, "/tracez?kind=complete&model=yolov2"); len(lines(body)) != 1 {
		t.Errorf("combined filter: %q", body)
	}
	_, _, body = get(t, srv, "/tracez?n=2")
	if got := lines(body); len(got) != 2 || !strings.Contains(got[1], `"complete"`) {
		t.Errorf("n filter should keep the most recent events: %q", body)
	}
	// A malformed n is forgiven on the dump endpoint.
	if code, _, _ := get(t, srv, "/tracez?n=bogus"); code != 200 {
		t.Errorf("/tracez?n=bogus: %d", code)
	}
}

// TestAdminSpanz: the ring folds into span trees over HTTP, ?n= trims, and
// a malformed n is a 400.
func TestAdminSpanz(t *testing.T) {
	srv := httptest.NewServer(AdminConfig{Ring: ringWithRun()}.Mux())
	defer srv.Close()

	_, ct, body := get(t, srv, "/spanz")
	if !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content type %s", ct)
	}
	var tree trace.SpanTree
	if err := json.Unmarshal([]byte(body), &tree); err != nil {
		t.Fatalf("/spanz body: %v", err)
	}
	if len(tree.Requests) != 2 || len(tree.Problems) != 0 {
		t.Fatalf("tree = %+v", tree)
	}
	r1 := tree.Span(1)
	if r1 == nil || r1.WaitMs != 3 || r1.ExecMs != 4 {
		t.Errorf("span 1 = %+v, want wait=3 exec=4", r1)
	}

	_, _, body = get(t, srv, "/spanz?n=1")
	if err := json.Unmarshal([]byte(body), &tree); err != nil {
		t.Fatal(err)
	}
	if len(tree.Requests) != 1 || tree.Requests[0].ReqID != 1 {
		t.Errorf("?n=1 kept %+v, want just req 1", tree.Requests)
	}
	if code, _, _ := get(t, srv, "/spanz?n=-3"); code != 400 {
		t.Errorf("/spanz?n=-3: %d, want 400", code)
	}
}

// TestAdminTimeseriesz serves the provider's snapshot as JSON.
func TestAdminTimeseriesz(t *testing.T) {
	ts := NewTimeSeries(4, 100, 10, 1)
	ts.ObserveArrival(10)
	ts.ObserveOutcome(served(0, 10, 90, 40))
	srv := httptest.NewServer(AdminConfig{TimeSeries: ts.Snapshot}.Mux())
	defer srv.Close()

	_, ct, body := get(t, srv, "/timeseriesz")
	if !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content type %s", ct)
	}
	var snap TimeSeriesSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Windows) != 1 || snap.Windows[0].Completions != 1 {
		t.Errorf("snapshot = %+v", snap)
	}
}

// TestAdminHealthzDefaultHasBuildInfo: the default payload carries version
// fields so a bare mux still identifies its binary.
func TestAdminHealthzDefaultHasBuildInfo(t *testing.T) {
	srv := httptest.NewServer(AdminConfig{}.Mux())
	defer srv.Close()
	_, _, body := get(t, srv, "/healthz")
	var health map[string]string
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" || health["version"] == "" || health["go_version"] == "" {
		t.Errorf("healthz = %+v, want status/version/go_version", health)
	}
}
