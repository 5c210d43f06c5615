package serve

import (
	"errors"
	"net/rpc"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"split/internal/fleet"
	"split/internal/place"
)

// exportedWireErrors is every typed serving error a client can receive.
// New exported errors must be added here (and to reasonErr) so the decoder
// test keeps covering all of them.
var exportedWireErrors = []error{
	ErrNotStarted,
	ErrStopped,
	ErrUnknownModel,
	ErrQueueFull,
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
		{"queue full", func(c *Config) { stretch(c); c.MaxQueue = 1 }, func(t *testing.T, srv *Server, c *Client) error {
			busyThenQueued(t, srv, c)
			_, err := c.Infer("quick")
			return err
		}, ErrQueueFull},
		{"admission rejected", func(c *Config) {
			stretch(c)
			c.Admission = fleet.AdmissionConfig{Mode: fleet.AdmitQueueLength, MaxQueue: 1}
		}, func(t *testing.T, srv *Server, c *Client) error {
			busyThenQueued(t, srv, c)
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

// TestWireSurface pins the one protocol: *Responder registers exactly these
// ten RPC methods, and Dial reads the fleet shape from the server.
func TestWireSurface(t *testing.T) {
	want := []string{"Cancel", "Deploy", "DeployGraph", "Infer", "ListModels",
		"ModelStats", "Stats", "Submit", "Undeploy", "Wait"}
	// net/rpc registers an exported method with two arguments, a pointer
	// reply and a single error result.
	errType := reflect.TypeOf((*error)(nil)).Elem()
	typ := reflect.TypeOf(&Responder{})
	var got []string
	for i := 0; i < typ.NumMethod(); i++ {
		m := typ.Method(i).Type
		if m.NumIn() == 3 && m.In(2).Kind() == reflect.Pointer && m.NumOut() == 1 && m.Out(0) == errType {
			got = append(got, typ.Method(i).Name)
		}
	}
	sort.Strings(got)
	if !slices.Equal(got, want) {
		t.Errorf("RPC methods = %v, want %v", got, want)
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
	if devs, pol := c.Fleet(); devs != 2 || pol != place.LeastLoaded {
		t.Errorf("fleet = (%d, %q), server has (2, %q)", devs, pol, place.LeastLoaded)
	}
	if c.Partitions() != 2 {
		t.Errorf("partitions = %d, server has 2", c.Partitions())
	}
}
