package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/rpc"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"split/internal/fleet"
	"split/internal/onnxlite"
	"split/internal/place"
	"split/internal/zoo"
)

// exportedWireErrors is every typed serving error a client can receive.
// New exported errors must be added here (and to reasonErr) so the decoder
// test keeps covering all of them.
var exportedWireErrors = []error{
	ErrNotStarted,
	ErrStopped,
	ErrUnknownModel,
	ErrDeadlineExceeded,
	ErrCanceled,
	ErrDrained,
	ErrDeviceFault,
	ErrAdmissionRejected,
}

// TestWireDecoderUnambiguous: every exported error decodes from its wire
// form, no typed message is a prefix of another (so the decoder's answer
// does not depend on map order), and everything else passes through.
func TestWireDecoderUnambiguous(t *testing.T) {
	if len(reasonErr) != len(exportedWireErrors) {
		t.Fatalf("reasonErr has %d reasons, %d exported errors", len(reasonErr), len(exportedWireErrors))
	}
	for _, typed := range exportedWireErrors {
		n := 0
		for _, e := range reasonErr {
			if e == typed {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%v has %d reasons, want 1", typed, n)
		}
		msg := typed.Error() + " (request 7)"
		back := fromWire(rpc.ServerError(msg))
		if !errors.Is(back, typed) {
			t.Errorf("%v: errors.Is lost across the wire (got %v)", typed, back)
		}
		if back.Error() != msg {
			t.Errorf("%v: message %q != %q", typed, back.Error(), msg)
		}
		for _, other := range exportedWireErrors {
			if other != typed && strings.HasPrefix(other.Error(), typed.Error()) {
				t.Errorf("%q is a prefix of %q: decoding is ambiguous", typed, other)
			}
		}
	}
	for _, err := range []error{errors.New("some transport error"), rpc.ServerError("serve: deploy x with unknown class"), rpc.ErrShutdown} {
		if got := fromWire(err); got != err {
			t.Errorf("untyped %v decoded to %v", err, got)
		}
	}
	if fromWire(nil) != nil {
		t.Error("fromWire(nil) != nil")
	}
}

// TestTypedOutcomesAcrossWire: every typed outcome a client can provoke
// satisfies errors.Is on the far side of a real connection.
func TestTypedOutcomesAcrossWire(t *testing.T) {
	// stretch makes solo hold the device 300 ms and work blocks 200 ms, so a
	// queue built behind them stays put while the row provokes its error.
	stretch := func(c *Config) { c.TimeScale = 10 }
	// busyThenQueued puts solo on the device and work in the queue behind it.
	busyThenQueued := func(t *testing.T, srv *Server, c *Client) {
		if _, err := c.Submit("solo", 0); err != nil {
			t.Fatal(err)
		}
		waitBusy(t, srv)
		if _, err := c.Submit("work", 0); err != nil {
			t.Fatal(err)
		}
	}
	rows := []struct {
		name    string
		mut     func(*Config)
		provoke func(t *testing.T, srv *Server, c *Client) error
		want    error
	}{
		{"unknown model", nil, func(t *testing.T, _ *Server, c *Client) error {
			_, err := c.Infer("nosuch")
			return err
		}, ErrUnknownModel},
		{"queue full", func(c *Config) {
			stretch(c)
			c.Admission = fleet.AdmissionConfig{Mode: fleet.AdmitQueueLength, MaxQueue: 1}
		}, func(t *testing.T, srv *Server, c *Client) error {
			busyThenQueued(t, srv, c)
			_, err := c.Infer("quick")
			if !strings.Contains(fmt.Sprint(err), fleet.DetailQueueLength) {
				t.Errorf("rejection %v does not name %s", err, fleet.DetailQueueLength)
			}
			return err
		}, ErrAdmissionRejected},
		{"admission rejected", func(c *Config) {
			c.Admission = fleet.AdmissionConfig{Mode: fleet.AdmitTokenBucket, RatePerSec: 0.001, Burst: 1}
		}, func(t *testing.T, srv *Server, c *Client) error {
			if _, err := c.Infer("quick"); err != nil {
				t.Fatal(err)
			}
			_, err := c.Infer("quick")
			return err
		}, ErrAdmissionRejected},
		{"client cancel", stretch, func(t *testing.T, srv *Server, c *Client) error {
			busyThenQueued(t, srv, c)
			id, err := c.Submit("work", 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Cancel(id); err != nil {
				t.Fatal(err)
			}
			_, err = c.Wait(id)
			return err
		}, ErrCanceled},
		{"deadline", nil, func(t *testing.T, _ *Server, c *Client) error {
			// Block 1 of 3 × 20 ms ends past the 30 ms deadline.
			_, err := c.InferDeadline("work", 30)
			return err
		}, ErrDeadlineExceeded},
		{"stopped", nil, func(t *testing.T, srv *Server, c *Client) error {
			srv.Stop()
			_, err := c.Infer("quick")
			return err
		}, ErrStopped},
		{"stopped on Deploy", nil, func(t *testing.T, srv *Server, c *Client) error {
			srv.Stop()
			_, err := c.Deploy(DeployArgs{Name: "late", Class: "Short", ExtMs: 1})
			return err
		}, ErrStopped},
		{"unknown model on Undeploy", nil, func(t *testing.T, _ *Server, c *Client) error {
			return c.Undeploy("nosuch")
		}, ErrUnknownModel},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			srv, _, _ := startLifecycle(t, row.mut)
			// Dialed before any Stop: the connection outlives the listener.
			c, err := Dial(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := row.provoke(t, srv, c); !errors.Is(err, row.want) {
				t.Errorf("got %v, want errors.Is(err, %v)", err, row.want)
			}
		})
	}
}

// TestWireSurface pins the one protocol: the dispatch table holds exactly
// these ten methods, each answers a call through a real Dial, and Dial reads
// the fleet shape from the server.
func TestWireSurface(t *testing.T) {
	var graph bytes.Buffer
	if err := onnxlite.EncodeGraph(&graph, zoo.MustLoad("yolov2")); err != nil {
		t.Fatal(err)
	}
	var submitted SubmitReply
	// One call per method: args it accepts and the reply it fills.
	calls := map[string]func() (args, reply wirer){
		"SPLIT.Infer":  func() (wirer, wirer) { return &InferArgs{Model: "quick"}, &InferReply{} },
		"SPLIT.Submit": func() (wirer, wirer) { return &InferArgs{Model: "quick"}, &submitted },
		"SPLIT.Wait":   func() (wirer, wirer) { return &WaitArgs{ReqID: submitted.ReqID}, &InferReply{} },
		"SPLIT.Cancel": func() (wirer, wirer) { return &CancelArgs{ReqID: 9999}, &CancelReply{} },
		"SPLIT.Stats":  func() (wirer, wirer) { return &empty{}, &StatsReply{} },
		"SPLIT.ModelStats": func() (wirer, wirer) {
			return &empty{}, &ModelStatsReply{}
		},
		"SPLIT.Deploy": func() (wirer, wirer) {
			return &DeployArgs{Name: "extra", Class: "Short", ExtMs: 1}, &DeployReply{}
		},
		"SPLIT.Undeploy":   func() (wirer, wirer) { return &UndeployArgs{Name: "extra"}, &empty{} },
		"SPLIT.ListModels": func() (wirer, wirer) { return &empty{}, &ListModelsReply{} },
		"SPLIT.DeployGraph": func() (wirer, wirer) {
			return &DeployGraphArgs{GraphJSON: graph.Bytes(), Blocks: 1}, &DeployGraphReply{}
		},
	}
	var names, want []string
	for _, m := range methods {
		names = append(names, m.name)
	}
	for name := range calls {
		want = append(want, name)
	}
	got := slices.Clone(names)
	sort.Strings(got)
	sort.Strings(want)
	if !slices.Equal(got, want) {
		t.Fatalf("dispatch table = %v, want %v", got, want)
	}

	srv, _, _ := startLifecycle(t, func(c *Config) {
		c.Devices = 2
		c.Placement = place.LeastLoaded
		c.Partitions = 2
		c.PartitionWidth = place.WidthFixed
	})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Table order: Submit before Wait, Deploy before Undeploy.
	for _, name := range names {
		args, reply := calls[name]()
		if err := c.rpc.Call(name, args, reply); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if devs, pol := c.Fleet(); devs != 2 || pol != place.LeastLoaded {
		t.Errorf("fleet = (%d, %q), server has (2, %q)", devs, pol, place.LeastLoaded)
	}
	if c.Partitions() != 2 {
		t.Errorf("partitions = %d, server has 2", c.Partitions())
	}
}

// wireMessages is one populated value of every message the ten methods
// carry, args and replies, with non-ASCII strings, negative numbers and
// special floats; and the same types with every list empty.
func wireMessages() []wirer {
	return []wirer{
		&InferArgs{Model: "résnet-β 模型", DeadlineMs: 12.5},
		&InferReply{ReqID: 1 << 40, Model: "vgg19", Blocks: 3, E2EMs: 41.25, ExtMs: math.Inf(1),
			WaitMs: -0.5, ResponseRatio: math.NaN(), Preemptions: -2, Device: 63},
		&SubmitReply{ReqID: 7},
		&WaitArgs{ReqID: -1},
		&CancelArgs{ReqID: 9999},
		&CancelReply{State: string(CancelInflight)},
		&StatsReply{Served: 5, Queued: 2, Models: 5, UptimeS: 3.5, Devices: 4, Placement: "least-loaded", Partitions: 2},
		&ModelStatsReply{Alpha: 4, Models: []ModelQoS{
			{Model: "ner", Served: 3, MeanRR: 1.5, MaxRR: 2, MeanWaitMs: 0.25, ViolationRate: 0.1, Preemptions: 1},
			{Model: "ポーズ"},
		}},
		&ModelStatsReply{Alpha: 4, Models: []ModelQoS{}},
		&DeployArgs{Name: "tiny", Class: "Short", ExtMs: 2, BlockTimesMs: []float64{1, 1.2}},
		&DeployArgs{Name: "whole", Class: "Long", ExtMs: 1, BlockTimesMs: []float64{}},
		&DeployReply{Name: "tiny", Blocks: 2, Replaced: true},
		&UndeployArgs{Name: "ünknown"},
		&ListModelsReply{Models: []ModelDesc{{Name: "a", Class: "Long", ExtMs: 3, Blocks: 1}, {Name: "b"}}},
		&ListModelsReply{},
		&DeployGraphArgs{GraphJSON: []byte(`{"name":"g"}`), Blocks: 2, GASeed: -7},
		&DeployGraphArgs{},
		&DeployGraphReply{Name: "resnet50", Blocks: 2, StdDevMs: 0.5, OverheadRatio: 0.02, Replaced: true},
		&empty{},
		ptr(message("serve: queue full: 64 waiting")),
	}
}

func ptr[T any](v T) *T { return &v }

// sameMessage compares two messages field by field as %+v prints them: NaN
// equals NaN, and a nil list equals an empty one (both travel as count 0).
func sameMessage(a, b wirer) bool {
	show := func(m wirer) string { return fmt.Sprintf("%+v", reflect.ValueOf(m).Elem()) }
	return show(a) == show(b)
}

// fresh is a zero value of msg's type.
func fresh(msg wirer) wirer {
	return reflect.New(reflect.TypeOf(msg).Elem()).Interface().(wirer)
}

// TestWireRoundTrip: every message decodes back to itself, alone and as a
// frame read off a stream of them, and every strict prefix of its body is
// an error rather than a message with fields missing.
func TestWireRoundTrip(t *testing.T) {
	var stream coder
	for i, msg := range wireMessages() {
		var enc coder
		msg.wire(&enc)
		var dec coder
		got := fresh(msg)
		if err := dec.decode(enc.buf, got); err != nil {
			t.Errorf("%T: %v", msg, err)
		} else if !sameMessage(got, msg) {
			t.Errorf("%T: decoded %+v, want %+v", msg, got, msg)
		}
		for n := 0; n < len(enc.buf); n++ {
			if err := dec.decode(enc.buf[:n], fresh(msg)); err == nil {
				t.Errorf("%T: a %d-byte prefix of %d bytes decoded", msg, n, len(enc.buf))
			}
		}
		stream.frame(uint64(i)<<32, byte(i), msg)
	}
	frames := newFrameReader(bytes.NewReader(stream.buf))
	for i, msg := range wireMessages() {
		seq, kind, body, err := frames.next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got := fresh(msg)
		var dec coder
		if seq != uint64(i)<<32 || kind != byte(i) || dec.decode(body, got) != nil || !sameMessage(got, msg) {
			t.Errorf("frame %d: seq %d kind %d %+v, want seq %d kind %d %+v", i, seq, kind, got, uint64(i)<<32, i, msg)
		}
	}
	if _, _, _, err := frames.next(); !errors.Is(err, io.EOF) {
		t.Errorf("after the last frame: %v, want EOF", err)
	}
}

// FuzzWireFrame: arbitrary bytes through the server's frame reader and
// into every message's decoder never panic; each decode either fails or
// yields a message that survives a second round trip.
func FuzzWireFrame(f *testing.F) {
	for i, msg := range wireMessages() {
		var c coder
		c.frame(uint64(i), byte(i), msg)
		f.Add(c.buf)
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{9, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		frames := newFrameReader(bytes.NewReader(data))
		for {
			_, _, body, err := frames.next()
			if err != nil {
				return
			}
			for _, msg := range wireMessages() {
				var dec coder
				got := fresh(msg)
				if dec.decode(body, got) != nil {
					continue
				}
				var enc coder
				got.wire(&enc)
				again := fresh(msg)
				if err := dec.decode(enc.buf, again); err != nil || !sameMessage(again, got) {
					t.Fatalf("%T: %+v re-decoded as %+v (%v)", msg, got, again, err)
				}
			}
		}
	})
}

// TestOverCapFrameClosesConnection: a frame whose length is past maxFrame
// gets the connection closed, not a 64 MiB buffer; other connections keep
// being served.
func TestOverCapFrameClosesConnection(t *testing.T) {
	srv, _, _ := startLifecycle(t, nil)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(binary.LittleEndian.AppendUint32(nil, maxFrame+1)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Errorf("read %d bytes, %v; want the server to close the connection", n, err)
	}
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Infer("quick"); err != nil {
		t.Errorf("another connection: %v", err)
	}
}

// TestNoGoroutinePerCall: a connection is served by two goroutines however
// many calls it has outstanding. 200 InferAsync calls queue behind a busy
// device and the process has no more goroutines than before them.
func TestNoGoroutinePerCall(t *testing.T) {
	srv, _, _ := startLifecycle(t, func(c *Config) { c.TimeScale = 10 })
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	busy := c.InferAsync("solo")
	waitBusy(t, srv)
	// Dial's Stats and the busy call have run through the connection, so
	// its server reader and writer and the client's reader are all up.
	before := runtime.NumGoroutine()
	calls := make([]*rpc.Call, 200)
	for i := range calls {
		calls[i] = c.InferAsync("quick")
	}
	for i := 0; srv.QueueSnapshot().Depth != len(calls); i++ {
		if i == 2000 {
			t.Fatalf("queue depth %d, want %d", srv.QueueSnapshot().Depth, len(calls))
		}
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines with %d calls outstanding, %d before them", n, len(calls), before)
	}
	srv.Stop()
	for _, call := range calls {
		if <-call.Done; !IsShed(call.Error) {
			t.Fatalf("queued call: %v, want it shed by Stop", call.Error)
		}
	}
	if <-busy.Done; busy.Error != nil {
		t.Errorf("in-flight call: %v", busy.Error)
	}
}

// TestConnectionFIFO: requests written in order on one connection reach the
// engine in that order, so their IDs ascend in call order.
func TestConnectionFIFO(t *testing.T) {
	srv, _, _ := startLifecycle(t, func(c *Config) { c.TimeScale = 0.01 })
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	calls := make([]*rpc.Call, 100)
	for i := range calls {
		calls[i] = c.InferAsync("quick")
	}
	prev := -1
	for i, call := range calls {
		if <-call.Done; call.Error != nil {
			t.Fatal(call.Error)
		}
		id := call.Reply.(*InferReply).ReqID
		if id <= prev {
			t.Errorf("call %d arrived as request %d, after request %d", i, id, prev)
		}
		prev = id
	}
}

// TestOneWaiterPerRequest is the regression for a second Wait that hung
// forever: a request has one waiter, so a second Wait on it — or a Wait on
// a request an Infer is waiting for, or on another connection's request —
// fails at once, and the first waiter still gets the outcome.
func TestOneWaiterPerRequest(t *testing.T) {
	srv, _, _ := startLifecycle(t, func(c *Config) { c.TimeScale = 10 })
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	other, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	id, err := c.Submit("solo", 0)
	if err != nil {
		t.Fatal(err)
	}
	first := c.rpc.Go("SPLIT.Wait", &WaitArgs{ReqID: id}, &InferReply{}, nil)
	infer := c.InferAsync("quick") // request id+1: IDs follow arrival order
	for _, late := range []struct {
		name string
		c    *Client
		id   int
	}{{"second Wait", c, id}, {"Wait on an Infer's request", c, id + 1}, {"Wait from another connection", other, id}} {
		if _, err := late.c.Wait(late.id); err == nil {
			t.Errorf("%s succeeded", late.name)
		}
	}
	select {
	case <-first.Done:
		t.Fatalf("the first Wait finished (%v) before the late ones were refused", first.Error)
	default:
	}
	for _, call := range []*rpc.Call{first, infer} {
		if <-call.Done; call.Error != nil {
			t.Errorf("%s: %v", call.ServiceMethod, call.Error)
		}
	}
	if got := first.Reply.(*InferReply); got.ReqID != id || got.Model != "solo" {
		t.Errorf("first Wait got %+v", got)
	}
}
