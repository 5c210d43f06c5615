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
		if err := (<-c.send(name, args, reply).Done).Error; err != nil {
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
	// the reader and writer at each of its ends are all up.
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
	first := c.send("SPLIT.Wait", &WaitArgs{ReqID: id}, &InferReply{})
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

// TestInferAsyncAllocs pins what a request costs the whole process, client
// and server over loopback: the call with its reply, and its Done channel
// (two allocations: its element holds a pointer). Two models alternate 3:1,
// so the server resolves a changed name through its connection's memo.
func TestInferAsyncAllocs(t *testing.T) {
	srv, _, _ := startLifecycle(t, func(c *Config) {
		c.Obs, c.Sink, c.TimeScale = nil, nil, 0.001
	})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n := 0
	infer := func() {
		model := "quick"
		if n++; n%4 == 0 {
			model = "solo"
		}
		if call := c.InferAsync(model); (<-call.Done).Error != nil {
			t.Fatal(call.Error)
		}
	}
	for range 1000 {
		infer()
	}
	got := testing.AllocsPerRun(2000, infer)
	if t.Logf("%.2f allocations per InferAsync", got); got > 3.5 {
		t.Errorf("%.2f allocations per InferAsync, want ≤ 3.5", got)
	}
}

// TestClientLifecycle: the client's half of a connection, against a frame
// server written by hand over net.Pipe. Replies complete their calls by
// seq in any order; a reply for no call is dropped; a drop or Close fails
// every pending call exactly once; a call after Close fails unsent; and
// each way down, the client's reader and writer exit.
func TestClientLifecycle(t *testing.T) {
	// open dials a client over a pipe and returns the server's end, the
	// reader of the calls it receives, and the goroutine count before.
	open := func(t *testing.T) (*Client, net.Conn, *frameReader, int) {
		before := runtime.NumGoroutine()
		near, far := net.Pipe()
		t.Cleanup(func() { far.Close() })
		return newClient(near), far, newFrameReader(far), before
	}
	// receive reads n Infer calls and returns their seqs and models.
	receive := func(t *testing.T, frames *frameReader, n int) (seqs []uint64, models []string) {
		for range n {
			seq, kind, body, err := frames.next()
			var args InferArgs
			var dec coder
			if err != nil || kind != 0 || dec.decode(body, &args) != nil {
				t.Fatalf("call frame: kind %d, %v", kind, err)
			}
			seqs, models = append(seqs, seq), append(models, args.Model)
		}
		return seqs, models
	}
	answer := func(t *testing.T, far net.Conn, seq uint64, kind byte, msg wirer) {
		var enc coder
		enc.frame(seq, kind, msg)
		if _, err := far.Write(enc.buf); err != nil {
			t.Fatal(err)
		}
	}
	// exited waits for the client's reader and writer to exit, then checks
	// that no call completed twice: a second completion would have been
	// sent by then.
	exited := func(t *testing.T, before int, calls ...*rpc.Call) {
		for i := 0; runtime.NumGoroutine() > before; i++ {
			if i == 5000 {
				t.Fatalf("%d goroutines, %d before the client", runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
		for i, call := range calls {
			if len(call.Done) != 0 {
				t.Errorf("call %d completed twice", i)
			}
		}
	}

	t.Run("replies by seq", func(t *testing.T) {
		c, far, frames, before := open(t)
		want := []string{"a", "b", "c", "d"}
		var calls []*rpc.Call
		for _, m := range want {
			calls = append(calls, c.InferAsync(m))
		}
		seqs, models := receive(t, frames, len(want))
		if !slices.Equal(models, want) {
			t.Fatalf("calls arrived as %v, want %v", models, want)
		}
		answer(t, far, seqs[3]+100, replyOK, &InferReply{ReqID: 99, Model: "stray"})
		answer(t, far, seqs[3], replyErr, ptr(message("serve: no such thing")))
		for i := 2; i >= 0; i-- {
			answer(t, far, seqs[i], replyOK, &InferReply{ReqID: i, Model: want[i]})
		}
		for i, call := range calls[:3] {
			<-call.Done
			if got := call.Reply.(*InferReply); call.Error != nil || got.ReqID != i || got.Model != want[i] {
				t.Errorf("call %d: %+v, %v; want request %d of %s", i, got, call.Error, i, want[i])
			}
		}
		if <-calls[3].Done; calls[3].Error != rpc.ServerError("serve: no such thing") {
			t.Errorf("error reply: %#v", calls[3].Error)
		}
		c.Close()
		exited(t, before, calls...)
	})

	t.Run("server drops", func(t *testing.T) {
		c, far, frames, before := open(t)
		calls := []*rpc.Call{c.InferAsync("a"), c.InferAsync("b"), c.InferAsync("c")}
		receive(t, frames, len(calls))
		far.Close()
		for i, call := range calls {
			if <-call.Done; !errors.Is(call.Error, io.ErrUnexpectedEOF) {
				t.Errorf("call %d: %v, want %v", i, call.Error, io.ErrUnexpectedEOF)
			}
		}
		exited(t, before, calls...)
		if _, err := c.Stats(); !errors.Is(err, rpc.ErrShutdown) {
			t.Errorf("call after the drop: %v, want %v", err, rpc.ErrShutdown)
		}
		c.Close()
	})

	t.Run("Close", func(t *testing.T) {
		c, _, frames, before := open(t)
		calls := []*rpc.Call{c.InferAsync("a"), c.InferAsync("b")}
		receive(t, frames, len(calls))
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		for i, call := range calls {
			if <-call.Done; !errors.Is(call.Error, rpc.ErrShutdown) {
				t.Errorf("pending call %d: %v, want %v", i, call.Error, rpc.ErrShutdown)
			}
		}
		late := c.InferAsync("late")
		if <-late.Done; !errors.Is(late.Error, rpc.ErrShutdown) {
			t.Errorf("InferAsync after Close: %v, want %v", late.Error, rpc.ErrShutdown)
		}
		if _, err := c.Infer("late"); !errors.Is(err, rpc.ErrShutdown) {
			t.Errorf("Infer after Close: %v, want %v", err, rpc.ErrShutdown)
		}
		c.mu.Lock()
		if c.seq != 2 || len(c.out.buf) != 0 {
			t.Errorf("calls after Close were framed: seq %d, %d bytes unsent", c.seq, len(c.out.buf))
		}
		c.mu.Unlock()
		if err := c.Close(); !errors.Is(err, rpc.ErrShutdown) {
			t.Errorf("second Close: %v, want %v", err, rpc.ErrShutdown)
		}
		exited(t, before, append(calls, late)...)
	})
}
