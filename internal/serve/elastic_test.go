package serve

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"split/internal/fleet"
	"split/internal/obs"
	"split/internal/place"
	"split/internal/trace"
)

// TestRejectedDropKeepsItsOwnID guards the seam the shared narrator opens:
// the engine's admission Drop carries the rejected job's ID, so every job
// that reaches the front door must take one. Were IDs handed out only on
// admission, the next admitted request would reuse the rejected one's and a
// per-request fold would attach the Drop to the wrong request.
func TestRejectedDropKeepsItsOwnID(t *testing.T) {
	srv, _, ring := startLifecycle(t, func(c *Config) {
		c.Admission = fleet.AdmissionConfig{Mode: fleet.AdmitQueueLength, MaxQueue: 1}
	})
	_, chA, err := srv.enqueue("work", 0)
	if err != nil {
		t.Fatal(err)
	}
	waitBusy(t, srv) // A holds the device, so B waits and fills the cap
	_, chB, err := srv.enqueue("work", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.enqueue("work", 0); !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("arrival over the queue cap: err = %v, want an admission rejection", err)
	}
	await(t, chA)
	await(t, chB)
	_, chD, err := srv.enqueue("work", 0) // admitted after the rejection
	if err != nil {
		t.Fatal(err)
	}
	await(t, chD)

	events := ring.Snapshot()
	if tree := trace.BuildSpans(events); len(tree.Problems) != 0 || len(tree.Requests) != 3 {
		t.Fatalf("ring folds into %d spans with problems %v, want 3 clean spans", len(tree.Requests), tree.Problems)
	}
	arrived := map[int]bool{}
	for _, e := range events {
		if e.Kind == trace.Arrive {
			arrived[e.ReqID] = true
		}
	}
	drops := 0
	for _, e := range events {
		if e.Kind != trace.Drop {
			continue
		}
		drops++
		if arrived[e.ReqID] {
			t.Errorf("rejected drop %+v shares its id with an admitted request", e)
		}
	}
	if drops != 1 {
		t.Errorf("%d drop events, want the one rejection", drops)
	}
}

// TestServeAutoscaleScalesOutAndBackIn drives the wall-clock elasticity
// lifecycle: a burst of 30 ms requests piles depth onto the single active
// device and forces a scale-out; once the backlog drains, a trickle of
// 1 ms requests keeps evaluations coming until sustained idle releases the
// second device again. Scale events carry ReqID -1 and the live gauge and
// counters must agree with the trace.
func TestServeAutoscaleScalesOutAndBackIn(t *testing.T) {
	srv, reg, ring := startLifecycle(t, func(c *Config) {
		c.Placement = place.RoundRobin
		c.Fleet = fleet.AutoscaleConfig{
			Min: 1, Max: 2,
			EvalEveryMs:        5,
			HighDepthPerDevice: 1,
			// Depth-driven lifecycle, as in the sim's elastic test: a
			// reachable viol watermark would keep the rolling window hot
			// through the idle stretch and veto the release. The viol-signal
			// path is unit-tested in internal/fleet.
			HighViolRate:       1000,
			ScaleOutCooldownMs: 5,
			ScaleInCooldownMs:  40,
			IdleReleaseMs:      40,
		}
	})
	if srv.eng.Lanes() != 2 {
		t.Fatalf("fleet holds %d lanes, want Fleet.Max=2", srv.eng.Lanes())
	}
	if snap := srv.QueueSnapshot(); snap.ActiveDevices != 1 {
		t.Fatalf("fleet started with %d active devices, want Min=1", snap.ActiveDevices)
	}

	var chans []chan outcome
	for i := 0; i < 8; i++ {
		_, ch, err := srv.enqueue("solo", 0)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
		time.Sleep(6 * time.Millisecond) // > EvalEveryMs: every arrival evaluates
	}
	for i, ch := range chans {
		if out := await(t, ch); out.err != nil {
			t.Fatalf("burst request %d: %v", i, out.err)
		}
	}
	if snap := srv.QueueSnapshot(); snap.ActiveDevices != 2 {
		t.Fatalf("burst never scaled out: %d active", snap.ActiveDevices)
	}
	if v := reg.Gauge(obs.MetricFleetActive, "").Value(); v != 2 {
		t.Errorf("split_fleet_active_devices = %v, want 2", v)
	}

	// Idle trickle: evaluations ride on arrivals, so keep a slow pulse
	// coming until the sustained-idle clock releases the second device.
	deadline := time.Now().Add(10 * time.Second)
	for srv.QueueSnapshot().ActiveDevices != 1 {
		if time.Now().After(deadline) {
			t.Fatal("sustained idle never released the second device")
		}
		_, ch, err := srv.enqueue("quick", 0)
		if err != nil {
			t.Fatal(err)
		}
		if out := await(t, ch); out.err != nil {
			t.Fatal(out.err)
		}
		time.Sleep(8 * time.Millisecond)
	}

	outs, ins := 0, 0
	for _, e := range ring.Snapshot() {
		switch e.Kind {
		case trace.ScaleOut:
			outs++
		case trace.ScaleIn:
			ins++
		default:
			continue
		}
		if e.ReqID != -1 {
			t.Fatalf("control-plane event carries request id %d: %+v", e.ReqID, e)
		}
	}
	if outs == 0 || ins == 0 {
		t.Fatalf("trace has %d scale-outs / %d scale-ins, want both > 0", outs, ins)
	}
	if got := reg.Counter(obs.MetricAutoscaleEvents, "", "direction", "out").Value(); got != int64(outs) {
		t.Errorf("split_autoscale_events_total{direction=out} = %d, trace says %d", got, outs)
	}
	if got := reg.Counter(obs.MetricAutoscaleEvents, "", "direction", "in").Value(); got != int64(ins) {
		t.Errorf("split_autoscale_events_total{direction=in} = %d, trace says %d", got, ins)
	}
	if v := reg.Gauge(obs.MetricFleetActive, "").Value(); v != 1 {
		t.Errorf("split_fleet_active_devices = %v after release, want 1", v)
	}
}

// TestServeElasticConcurrentScaleDown hammers an autoscaled fleet from
// concurrent clients with aggressive scale thresholds, so scale-downs race
// hold timers settling in-flight work on the draining device — the -race
// regression for the active-prefix bookkeeping. Every request must still
// resolve with a nil or typed outcome and the fleet must drain cleanly.
func TestServeElasticConcurrentScaleDown(t *testing.T) {
	srv, _, _ := startLifecycle(t, func(c *Config) {
		c.Placement = place.LeastLoaded
		c.Fleet = fleet.AutoscaleConfig{
			Min: 1, Max: 4,
			EvalEveryMs:        1,
			HighDepthPerDevice: 1,
			HighViolRate:       1000,
			ScaleOutCooldownMs: 2,
			ScaleInCooldownMs:  4,
			IdleReleaseMs:      4,
		}
	})
	const workers, per = 8, 25
	errs := make(chan error, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				name := "quick"
				if (i+w)%5 == 0 {
					name = "solo" // long holds keep draining devices busy across scale-ins
				}
				_, ch, err := srv.enqueue(name, 0)
				if err != nil {
					errs <- fmt.Errorf("worker %d request %d: %w", w, i, err)
					return
				}
				select {
				case out := <-ch:
					if out.err != nil {
						errs <- fmt.Errorf("worker %d request %d: %w", w, i, out.err)
						return
					}
				case <-time.After(10 * time.Second):
					errs <- fmt.Errorf("worker %d request %d: no outcome within 10s", w, i)
					return
				}
				if w == 0 {
					time.Sleep(3 * time.Millisecond) // idle gaps drive scale-ins mid-run
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	snap := srv.QueueSnapshot()
	if snap.ActiveDevices < 1 || snap.ActiveDevices > 4 {
		t.Fatalf("active fleet size %d escaped [1, 4]", snap.ActiveDevices)
	}
	if shed := srv.Drain(5 * time.Second); shed != 0 {
		t.Fatalf("drain shed %d requests from an idle fleet", shed)
	}
}

// TestScrapeWhileServing scrapes /metrics in a loop while eight workers
// drive a fleet with every feature that registers a gauge on: autoscaling,
// partitions, batching and admission. Each gauge is read at scrape time
// under the server's mutex while hold timers settle and arrivals grant on
// other goroutines, so this is the race detector's view of the read path.
// Once the work is done the gauges read the idle server.
func TestScrapeWhileServing(t *testing.T) {
	srv, reg, _ := startLifecycle(t, func(c *Config) {
		c.Placement = place.LeastLoaded
		c.Partitions, c.PartitionWidth = 2, place.WidthAdaptive
		c.BatchMax = 4
		c.Admission = fleet.AdmissionConfig{Mode: fleet.AdmitQueueLength, MaxQueue: 16}
		c.Fleet = fleet.AutoscaleConfig{Min: 1, Max: 3, EvalEveryMs: 1, HighDepthPerDevice: 1,
			HighViolRate: 1000, ScaleOutCooldownMs: 2, ScaleInCooldownMs: 4, IdleReleaseMs: 4}
	})
	done := make(chan struct{})
	scrapes := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-done:
				scrapes <- n
				return
			default:
			}
			if err := reg.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
			}
			n++
		}
	}()
	const workers, per = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				name := "quick"
				if (i+w)%4 == 0 {
					name = "solo"
				}
				_, ch, err := srv.enqueue(name, 0)
				if errors.Is(err, ErrAdmissionRejected) {
					continue
				}
				if err != nil {
					t.Errorf("worker %d request %d: %v", w, i, err)
					return
				}
				select {
				case out := <-ch:
					if out.err != nil {
						t.Errorf("worker %d request %d: %v", w, i, out.err)
					}
				case <-time.After(10 * time.Second):
					t.Errorf("worker %d request %d: no outcome within 10s", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	if n := <-scrapes; n == 0 {
		t.Fatal("no scrape ran while serving")
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"split_queue_depth 0", `split_device_queue_depth{device="0"} 0`,
		`split_partition_width{device="0",part="0"} `, "split_fleet_active_devices "} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("idle scrape lacks %q:\n%s", want, b.String())
		}
	}
}
