package serve

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"split/internal/engine"
	"split/internal/fleet"
	"split/internal/obs"
	"split/internal/place"
	"split/internal/policy"
	"split/internal/sched"
	"split/internal/trace"
	"split/internal/workload"
)

// TestServeAdmissionParityWithSim is the admission acceptance criterion:
// the simulator and the wall-clock server, configured with the identical
// token-bucket gate, must make the identical admit/reject decision for
// every request in the same order. The bucket is built timing-insensitive —
// burst 3, refill 0.001 tokens/s — so wall-clock jitter cannot refill a
// token between requests and the decision sequence is fully determined.
func TestServeAdmissionParityWithSim(t *testing.T) {
	gate := fleet.AdmissionConfig{Mode: fleet.AdmitTokenBucket, RatePerSec: 0.001, Burst: 3}
	const n = 10

	// Discrete-event side.
	arrivals := make([]workload.Arrival, n)
	for i := range arrivals {
		arrivals[i] = workload.Arrival{ID: i, Model: "quick", AtMs: float64(i)}
	}
	sys := &policy.Split{Knobs: engine.Knobs{Alpha: 4, Elastic: sched.DefaultElastic(), Admission: gate}}
	recs := sys.Run(arrivals, lifecycleCatalog(), nil)
	simAdmitted := make([]bool, n)
	for _, r := range recs {
		simAdmitted[r.ID] = r.Outcome != policy.OutcomeAdmission
	}

	// Wall-clock side: same gate, same request sequence.
	srv, reg, ring := startLifecycle(t, func(c *Config) {
		c.Admission = gate
	})
	for i := 0; i < n; i++ {
		_, ch, err := srv.enqueue("quick", 0)
		admitted := err == nil
		if admitted != simAdmitted[i] {
			t.Fatalf("request %d: serve admitted=%v, sim admitted=%v (parity broken)",
				i, admitted, simAdmitted[i])
		}
		if admitted {
			if out := await(t, ch); out.err != nil {
				t.Fatalf("admitted request %d failed: %v", i, out.err)
			}
			continue
		}
		if !errors.Is(err, ErrAdmissionRejected) {
			t.Fatalf("request %d rejected with untyped error %v", i, err)
		}
		if !strings.Contains(err.Error(), fleet.DetailTokenBucket) {
			t.Errorf("rejection lost its detail: %v", err)
		}
	}

	// Tallies line up across both layers and the metric surface.
	rejected := 0
	for _, ok := range simAdmitted {
		if !ok {
			rejected++
		}
	}
	if rejected != n-gate.Burst {
		t.Fatalf("sim rejected %d of %d with burst %d", rejected, n, gate.Burst)
	}
	if got := dropCount(reg, DropAdmission); got != int64(rejected) {
		t.Errorf("split_drops_total{reason=admission} = %d, want %d", got, rejected)
	}
	if got := reg.Counter(obs.MetricAdmittedTotal, "").Value(); got != int64(n-rejected) {
		t.Errorf("split_admitted_total = %d, want %d", got, n-rejected)
	}
	drops := 0
	for _, e := range ring.Snapshot() {
		if e.Kind == trace.Drop && strings.HasPrefix(e.Detail, DropAdmission) {
			drops++
		}
	}
	if drops != rejected {
		t.Errorf("%d admission drop events for %d rejections", drops, rejected)
	}
}

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
		t.Fatalf("fleet holds %d executors, want Fleet.Max=2", srv.eng.Lanes())
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
// executors holding in-flight work on the draining device — the -race
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
