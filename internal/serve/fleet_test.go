package serve

import (
	"errors"
	"strings"
	"testing"
	"time"

	"split/internal/obs"
	"split/internal/place"
)

// TestFleetServeParallelism: two 60 ms requests round-robined onto two
// devices must run concurrently — the second would wait a full 60 ms if
// the fleet were secretly serializing on one device.
func TestFleetServeParallelism(t *testing.T) {
	srv, _, _ := startLifecycle(t, func(c *Config) {
		c.Devices = 2
		c.Placement = place.RoundRobin
	})
	var chans []chan outcome
	for i := 0; i < 2; i++ {
		_, ch, err := srv.enqueue("work", 0)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	for i, ch := range chans {
		out := await(t, ch)
		if out.err != nil {
			t.Fatalf("req %d: %v", i, out.err)
		}
		if out.req.Device != i {
			t.Errorf("req %d served on device %d", i, out.req.Device)
		}
		if wait := out.req.E2EMs() - out.req.ExtMs; wait > 30 {
			t.Errorf("req %d waited %.1f virtual ms — devices are serializing", i, wait)
		}
	}
}

// TestFleetServeMetricsAndSnapshot: fleets export per-device metric
// families and per-device snapshot state; single-device servers must not
// grow new families.
func TestFleetServeMetricsAndSnapshot(t *testing.T) {
	srv, reg, _ := startLifecycle(t, func(c *Config) {
		c.Devices = 2
		c.Placement = place.LeastLoaded
	})
	var chans []chan outcome
	for i := 0; i < 4; i++ {
		_, ch, err := srv.enqueue("solo", 0)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	for _, ch := range chans {
		if out := await(t, ch); out.err != nil {
			t.Fatal(out.err)
		}
	}
	snap := srv.QueueSnapshot()
	if snap.Placement != place.LeastLoaded {
		t.Errorf("snapshot placement %q", snap.Placement)
	}
	if len(snap.Devices) != 2 {
		t.Fatalf("snapshot has %d devices", len(snap.Devices))
	}
	var busyMs float64
	for _, d := range snap.Devices {
		busyMs += d.BusyMsTotal
	}
	// Four 30 ms blocks ran; occupancy must be attributed per device.
	if busyMs < 100 {
		t.Errorf("fleet busy accounting lost time: %.1f ms total", busyMs)
	}
	blocks := int64(0)
	for _, dev := range []string{"0", "1"} {
		blocks += reg.Counter(obs.MetricDeviceBlocks, "", "device", dev).Value()
		if reg.Gauge(obs.MetricDeviceBusyMs, "", "device", dev).Value() < 0 {
			t.Errorf("negative busy ms on device %s", dev)
		}
	}
	if blocks != 4 {
		t.Errorf("per-device block counters sum to %d, want 4", blocks)
	}

	// Single-device servers keep the pre-fleet metric surface.
	single, reg1, _ := startLifecycle(t, nil)
	if _, ch, err := single.enqueue("quick", 0); err != nil {
		t.Fatal(err)
	} else if out := await(t, ch); out.err != nil {
		t.Fatal(out.err)
	}
	var sb strings.Builder
	if err := reg1.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "split_device_") {
		t.Error("single-device server exported split_device_* families")
	}
	snap1 := single.QueueSnapshot()
	if snap1.Placement != "" || len(snap1.Devices) != 0 {
		t.Errorf("single-device snapshot grew fleet fields: %+v", snap1)
	}
}

// TestFleetCancelRoutesAcrossDevices: cancellation must find queued and
// in-flight work wherever the placer put it.
func TestFleetCancelRoutesAcrossDevices(t *testing.T) {
	srv, _, _ := startLifecycle(t, func(c *Config) {
		c.Devices = 2
		c.Placement = place.RoundRobin
	})
	// Fill both devices, then queue one more on each.
	var ids []int
	var chans []chan outcome
	for i := 0; i < 4; i++ {
		id, ch, err := srv.enqueue("work", 0)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		chans = append(chans, ch)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		busy := 0
		for _, d := range srv.QueueSnapshot().Devices {
			if d.Busy {
				busy++
			}
		}
		if busy == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("both devices never became busy")
		}
		time.Sleep(time.Millisecond)
	}
	// ids[2] and ids[3] are queued behind the in-flight pair.
	if st := srv.Cancel(ids[3]); st != CancelQueued {
		t.Fatalf("cancel queued on device 1: got %q", st)
	}
	if st := srv.Cancel(ids[0]); st != CancelInflight {
		t.Fatalf("cancel inflight on device 0: got %q", st)
	}
	if !errors.Is(await(t, chans[3]).err, ErrCanceled) {
		t.Error("queued cancel did not deliver ErrCanceled")
	}
	if !errors.Is(await(t, chans[0]).err, ErrCanceled) {
		t.Error("inflight cancel did not deliver ErrCanceled")
	}
	if out := await(t, chans[1]); out.err != nil {
		t.Errorf("untouched request on device 1 failed: %v", out.err)
	}
	if out := await(t, chans[2]); out.err != nil {
		t.Errorf("queued request on device 0 failed: %v", out.err)
	}
	// Graceful drain of an empty fleet exits cleanly.
	if shed := srv.Drain(5 * time.Second); shed != 0 {
		t.Errorf("drain shed %d requests on an empty fleet", shed)
	}
}
