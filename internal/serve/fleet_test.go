package serve

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"split/internal/engine"
	"split/internal/obs"
	"split/internal/place"
	"split/internal/policy"
	"split/internal/trace"
	"split/internal/workload"
)

// fleetOutcome maps a serve-side waiter result to the sim's outcome label.
func fleetOutcome(t *testing.T, i int, out outcome) string {
	t.Helper()
	if out.err == nil {
		return policy.OutcomeServed
	}
	switch {
	case errors.Is(out.err, ErrDeadlineExceeded):
		return policy.OutcomeDeadline
	case errors.Is(out.err, ErrCanceled):
		return policy.OutcomeCanceled
	case errors.Is(out.err, ErrDeviceFault):
		return policy.OutcomeDeviceFault
	default:
		t.Fatalf("serve outcome[%d]: unexpected error %v", i, out.err)
		return ""
	}
}

// arriveDevice reads the device a request was placed on from the event
// stream (the Arrive event is stamped for served and shed requests alike).
func arriveDevice(ring *trace.Ring, id int) int {
	for _, e := range ring.Snapshot() {
		if e.Kind == trace.Arrive && e.ReqID == id {
			return e.Device
		}
	}
	return -1
}

// TestFleetSimServeParity is the fleet acceptance criterion: for N in
// {1, 2, 4} devices under round-robin placement, the discrete-event fleet
// simulator and the real-time fleet server make identical decisions —
// same placements, same outcomes, same block counts. The static
// expectations pin both sides, so a shared drift cannot pass unnoticed.
//
// Worked timeline ("work" = 3 x 20 ms blocks, same-model scheduling is
// FIFO, deadlines chosen with >= 10 virtual ms of margin at every decision
// boundary):
//
//	N=1: FIFO r0,r1,r2,r3,r4 on device 0. r2 (deadline 50) and r3
//	     (deadline 70) expire queued at the 60/120 ms boundary sweeps.
//	N=2: round-robin puts r0,r2,r4 on d0 and r1,r3 on d1. r2 expires
//	     queued at d0's 60 ms sweep; r3 is granted on d1 at 60 ms and shed
//	     at its first block boundary (80 ms > 70).
//	N=4: every device has at most two requests; r2 and r3 start at 0 on
//	     their own devices and finish at 60, inside their deadlines'
//	     sweep margins, so everything is served.
func TestFleetSimServeParity(t *testing.T) {
	deadlines := []float64{1000, 1000, 50, 70, 1000}
	want := map[int]map[int]struct {
		outcome string
		device  int
		blocks  int
	}{
		1: {
			0: {policy.OutcomeServed, 0, 3},
			1: {policy.OutcomeServed, 0, 3},
			2: {policy.OutcomeDeadline, 0, 0},
			3: {policy.OutcomeDeadline, 0, 0},
			4: {policy.OutcomeServed, 0, 3},
		},
		2: {
			0: {policy.OutcomeServed, 0, 3},
			1: {policy.OutcomeServed, 1, 3},
			2: {policy.OutcomeDeadline, 0, 0},
			3: {policy.OutcomeDeadline, 1, 1},
			4: {policy.OutcomeServed, 0, 3},
		},
		4: {
			0: {policy.OutcomeServed, 0, 3},
			1: {policy.OutcomeServed, 1, 3},
			2: {policy.OutcomeServed, 2, 3},
			3: {policy.OutcomeServed, 3, 3},
			4: {policy.OutcomeServed, 0, 3},
		},
	}
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("devices=%d", n), func(t *testing.T) {
			expect := want[n]

			// Discrete-event side.
			arrivals := make([]workload.Arrival, len(deadlines))
			for i, d := range deadlines {
				arrivals[i] = workload.Arrival{ID: i, Model: "work", AtMs: float64(i), DeadlineMs: d}
			}
			tr := trace.New()
			sys := &policy.Split{Knobs: engine.Knobs{Alpha: 4, Devices: n, Placement: place.RoundRobin}}
			recs := sys.Run(arrivals, lifecycleCatalog(), tr)
			simBlocks := map[int]int{}
			for _, e := range tr.Events() {
				if e.Kind == trace.StartBlock {
					simBlocks[e.ReqID]++
				}
			}
			for _, r := range recs {
				w := expect[r.ID]
				if r.Outcome != w.outcome || r.Device != w.device || simBlocks[r.ID] != w.blocks {
					t.Errorf("sim req %d: outcome=%q device=%d blocks=%d, want %q/%d/%d",
						r.ID, r.Outcome, r.Device, simBlocks[r.ID], w.outcome, w.device, w.blocks)
				}
			}

			// Real-time side: same schedule through the fleet server. Time
			// is stretched 3x so the 10 virtual ms margins are 30 wall ms,
			// wider than the scheduling delay of a loaded two-core host;
			// the virtual schedule and every expectation are unchanged.
			srv, _, ring := startLifecycle(t, func(c *Config) {
				c.Devices = n
				c.Placement = place.RoundRobin
				c.TimeScale = 3
			})
			chans := make([]chan outcome, len(deadlines))
			for i, d := range deadlines {
				_, ch, err := srv.enqueue("work", d)
				if err != nil {
					t.Fatal(err)
				}
				chans[i] = ch
			}
			for i, ch := range chans {
				out := await(t, ch)
				w := expect[i]
				if got := fleetOutcome(t, i, out); got != w.outcome {
					t.Errorf("serve req %d outcome = %q, want %q (sim parity broken)", i, got, w.outcome)
				}
				if out.req != nil && out.req.Device != w.device {
					t.Errorf("serve req %d on device %d, want %d", i, out.req.Device, w.device)
				}
			}
			for i := range deadlines {
				w := expect[i]
				if dev := arriveDevice(ring, i); dev != w.device {
					t.Errorf("serve req %d placed on device %d, want %d (sim parity broken)", i, dev, w.device)
				}
				if blocks := startBlocks(ring, i); blocks != w.blocks {
					t.Errorf("serve req %d blocks = %d, want %d (sim parity broken)", i, blocks, w.blocks)
				}
			}
		})
	}
}

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
