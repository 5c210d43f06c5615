package serve

import (
	"bytes"
	"errors"
	"net"
	"net/rpc"
	"slices"
	"strings"
	"testing"
	"time"

	"split/internal/engine"
	"split/internal/onnxlite"
	"split/internal/sched"
	"split/internal/zoo"
)

// TestDeployNewModel runs a hot-deployed model end to end, bare and with a
// metrics registry attached: the per-model counter families are seeded from
// the construction-time catalog, so a model deployed later must register
// its own on first use.
func TestDeployNewModel(t *testing.T) {
	_, bare := startServer(t)
	observed, reg, _ := startLifecycle(t, nil)
	oc, err := Dial(observed.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { oc.Close() })
	for name, c := range map[string]*Client{"bare": bare, "obs": oc} {
		reply, err := c.Deploy(DeployArgs{
			Name:         "tiny",
			Class:        "Short",
			ExtMs:        2,
			BlockTimesMs: []float64{1, 1.2},
		})
		if err != nil {
			t.Fatal(name, err)
		}
		if reply.Replaced || reply.Blocks != 2 {
			t.Errorf("%s: reply = %+v", name, reply)
		}
		inf, err := c.Infer("tiny")
		if err != nil {
			t.Fatal(name, err)
		}
		if inf.Blocks != 2 || inf.E2EMs < 2 {
			t.Errorf("%s: infer = %+v", name, inf)
		}
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`split_requests_total{model="tiny"} 1`, `split_completions_total{model="tiny"} 1`} {
		if !strings.Contains(b.String(), want+"\n") {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestDeployReplaceModel(t *testing.T) {
	_, c := startServer(t)
	reply, err := c.Deploy(DeployArgs{Name: "short", Class: "Short", ExtMs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reply.Replaced || reply.Blocks != 1 {
		t.Errorf("reply = %+v", reply)
	}
}

func TestDeployValidation(t *testing.T) {
	srv, c := startServer(t)
	bads := []DeployArgs{
		{Name: "", Class: "Short", ExtMs: 1},
		{Name: "x", Class: "Medium", ExtMs: 1},
		{Name: "x", Class: "Short", ExtMs: 0},
		{Name: "x", Class: "Short", ExtMs: 1, BlockTimesMs: []float64{1, -2}},
	}
	for i, args := range bads {
		if _, err := c.Deploy(args); err == nil {
			t.Errorf("bad deploy %d accepted", i)
		}
	}
	// A trace event carries its block as an int16, so a longer plan is
	// refused before it can wrap. (Deployed in process: the plan is larger
	// than a frame.)
	deep := make([]float64, engine.MaxBlocks+1)
	for i := range deep {
		deep[i] = 1
	}
	if _, err := srv.deploy(&DeployArgs{Name: "deep", Class: "Short", ExtMs: 1, BlockTimesMs: deep}); err == nil {
		t.Errorf("a plan of %d blocks was deployed", len(deep))
	}
}

func TestUndeploy(t *testing.T) {
	_, c := startServer(t)
	if err := c.Undeploy("short"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Infer("short"); err == nil {
		t.Error("undeployed model served")
	}
	if err := c.Undeploy("short"); err == nil {
		t.Error("double undeploy succeeded")
	}
}

// TestDeploymentErrorsAreTyped: the deployment RPCs return the package's
// typed errors in-process, not look-alike messages. Their wire side is
// rows of TestTypedOutcomesAcrossWire.
func TestDeploymentErrorsAreTyped(t *testing.T) {
	srv, _ := startServer(t)
	if _, err := srv.undeploy(&UndeployArgs{Name: "nosuch"}); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("undeploy of an unknown model: %v", err)
	}
	var buf bytes.Buffer
	if err := onnxlite.EncodeGraph(&buf, zoo.MustLoad("yolov2")); err != nil {
		t.Fatal(err)
	}
	srv.Stop()
	if _, err := srv.deploy(&DeployArgs{Name: "late", Class: "Short", ExtMs: 1}); !errors.Is(err, ErrStopped) {
		t.Errorf("deploy on a stopped server: %v", err)
	}
	if _, err := srv.deployGraph(&DeployGraphArgs{GraphJSON: buf.Bytes(), Blocks: 1}); !errors.Is(err, ErrStopped) {
		t.Errorf("deploy-graph on a stopped server: %v", err)
	}
}

func TestListModels(t *testing.T) {
	_, c := startServer(t)
	models, err := c.ListModels()
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 {
		t.Fatalf("%d models", len(models))
	}
	if models[0].Name != "long" || models[0].Blocks != 3 {
		t.Errorf("models[0] = %+v", models[0])
	}
	if models[1].Name != "short" || models[1].Class != "Short" {
		t.Errorf("models[1] = %+v", models[1])
	}
	// Deploy one more; listing reflects it.
	if _, err := c.Deploy(DeployArgs{Name: "a-new", Class: "Long", ExtMs: 3}); err != nil {
		t.Fatal(err)
	}
	models, err = c.ListModels()
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 3 || models[0].Name != "a-new" {
		t.Errorf("after deploy: %+v", models)
	}
}

func TestDeployedPlanOverheadRecorded(t *testing.T) {
	_, c := startServer(t)
	if _, err := c.Deploy(DeployArgs{
		Name:         "planned",
		Class:        "Long",
		ExtMs:        10,
		BlockTimesMs: []float64{6, 6}, // 20% overhead
	}); err != nil {
		t.Fatal(err)
	}
	inf, err := c.Infer("planned")
	if err != nil {
		t.Fatal(err)
	}
	// Executed time is the 12 ms of blocks, against a 10 ms QoS basis.
	if inf.E2EMs < 12 || inf.ExtMs != 10 {
		t.Errorf("infer = %+v", inf)
	}
}

func TestDeployGraphServerSideSplitting(t *testing.T) {
	_, c := startServer(t)
	g := zoo.MustLoad("resnet50")
	var buf bytes.Buffer
	if err := onnxlite.EncodeGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	reply, err := c.DeployGraph(DeployGraphArgs{GraphJSON: buf.Bytes(), Blocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Name != "resnet50" || reply.Blocks != 2 {
		t.Fatalf("reply = %+v", reply)
	}
	if reply.StdDevMs > 1 || reply.OverheadRatio <= 0 {
		t.Errorf("server-side GA produced poor plan: %+v", reply)
	}
	// The model is now servable... at real time 28ms+ — acceptable in test.
	models, err := c.ListModels()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range models {
		if m.Name == "resnet50" && m.Blocks == 2 {
			found = true
		}
	}
	if !found {
		t.Error("uploaded model not listed")
	}
}

func TestDeployGraphUnsplitAndErrors(t *testing.T) {
	_, c := startServer(t)
	g := zoo.MustLoad("yolov2")
	var buf bytes.Buffer
	if err := onnxlite.EncodeGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	reply, err := c.DeployGraph(DeployGraphArgs{GraphJSON: buf.Bytes(), Blocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Blocks != 1 {
		t.Errorf("blocks = %d", reply.Blocks)
	}
	if _, err := c.DeployGraph(DeployGraphArgs{GraphJSON: []byte("junk"), Blocks: 2}); err == nil {
		t.Error("junk graph deployed")
	}
}

// TestHotDeployLeavesQueuedPlansAlone: a request executes the catalog's plan
// slice itself, not a copy, so a redeploy must install a new plan rather
// than edit the old one in place — work queued under the old plan finishes
// on it, and only later arrivals see the new one.
func TestHotDeployLeavesQueuedPlansAlone(t *testing.T) {
	srv, err := NewServer(Config{
		Knobs:     engine.Knobs{Alpha: 4}, // elastic off: every long request keeps its three blocks
		Catalog:   testCatalog(),
		TimeScale: 1,
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
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	var calls []*rpc.Call
	for i := 0; i < 6; i++ {
		calls = append(calls, c.InferAsync("long"))
	}
	var queued []*sched.Request
	for deadline := time.Now().Add(2 * time.Second); len(queued) < 3; time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("never saw three requests queued behind the first")
		}
		srv.mu.Lock()
		queued = append(queued[:0], srv.eng.Queue(0).Requests()...)
		srv.mu.Unlock()
	}
	if _, err := c.Deploy(DeployArgs{Name: "long", Class: "Long", ExtMs: 2, BlockTimesMs: []float64{1, 1}}); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	for _, r := range queued {
		if !slices.Equal(r.BlockTimes, []float64{4, 4, 4}) {
			t.Errorf("request %d, queued before the redeploy, now plans %v", r.ID, r.BlockTimes)
		}
	}
	srv.mu.Unlock()
	for _, call := range calls {
		<-call.Done
		if call.Error != nil {
			t.Fatal(call.Error)
		}
		if reply := call.Reply.(*InferReply); reply.Blocks != 3 || reply.ExtMs != 12 {
			t.Errorf("request %d ran %d blocks against ExtMs %v, want the plan it was queued with", reply.ReqID, reply.Blocks, reply.ExtMs)
		}
	}
	if reply, err := c.Infer("long"); err != nil || reply.Blocks != 2 {
		t.Errorf("after the redeploy: %+v, %v; want the new two-block plan", reply, err)
	}
}
