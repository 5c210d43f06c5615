package policy

import (
	"reflect"
	"testing"

	"split/internal/engine"
	"split/internal/fleet"
	"split/internal/sched"
	"split/internal/trace"
	"split/internal/workload"
)

// burstThenIdle builds an arrival schedule with a dense burst, a long idle
// stretch with a trickle of arrivals (the autoscaler only evaluates at
// arrivals), and a second burst.
func burstThenIdle() []workload.Arrival {
	var arrivals []workload.Arrival
	id := 0
	add := func(atMs float64, m string) {
		arrivals = append(arrivals, workload.Arrival{ID: id, Model: m, AtMs: atMs})
		id++
	}
	// Burst: 40 long requests in 200ms — far more than one device absorbs.
	for i := 0; i < 40; i++ {
		add(float64(i*5), "long")
	}
	// Trickle: one short request every 400ms for 8s keeps evaluations
	// coming while the fleet drains and goes idle.
	for i := 0; i < 20; i++ {
		add(1000+float64(i*400), "short")
	}
	// Second burst to prove a released device can rejoin.
	for i := 0; i < 20; i++ {
		add(10000+float64(i*5), "long")
	}
	return arrivals
}

// TestElasticScalesOutDrainsAndRejoins is the sim-side elasticity
// lifecycle test: the burst forces scale-out, the idle stretch forces
// drain-then-release, the second burst re-attaches, and the device-hours
// bill stays strictly under the fixed-Max fleet's.
func TestElasticScalesOutDrainsAndRejoins(t *testing.T) {
	catalog := synthCatalog()
	arrivals := burstThenIdle()
	s := &Split{Knobs: engine.Knobs{
		Alpha:   4,
		Elastic: sched.DefaultElastic(),
		Fleet: fleet.AutoscaleConfig{
			Min: 1, Max: 4,
			EvalEveryMs:        50,
			HighDepthPerDevice: 3,
			// Depth-driven lifecycle: the burst violates α wholesale, and a
			// reachable viol watermark would keep the rolling window "hot"
			// through the idle stretch and veto every release. The
			// viol-signal path is unit-tested in internal/fleet.
			HighViolRate:       2,
			ScaleOutCooldownMs: 100,
			ScaleInCooldownMs:  400,
			IdleReleaseMs:      800,
		},
	}}
	tr := trace.New()
	recs, stats := s.RunWithStats(arrivals, catalog, tr)
	if len(recs) != len(arrivals) {
		t.Fatalf("%d records for %d arrivals", len(recs), len(arrivals))
	}
	for _, r := range recs {
		if !r.Served() {
			t.Fatalf("request %d not served: %q", r.ID, r.Outcome)
		}
	}
	if stats.ScaleOuts == 0 || stats.ScaleIns == 0 {
		t.Fatalf("controller never cycled: %+v", stats)
	}
	if stats.MaxActive < 2 || stats.MaxActive > 4 {
		t.Fatalf("MaxActive = %d, want in [2,4]", stats.MaxActive)
	}
	// Strictly fewer device-hours than a fixed fleet of Max devices over
	// the same horizon.
	horizon := 0.0
	for _, r := range recs {
		if r.DoneMs > horizon {
			horizon = r.DoneMs
		}
	}
	if fixed := 4 * horizon; stats.DeviceHoursMs >= fixed {
		t.Fatalf("device-hours %.0f not under fixed fleet's %.0f", stats.DeviceHoursMs, fixed)
	}
	// The trace carries both control-plane kinds with ReqID -1 (so span
	// folding skips them) and matching counts.
	outs, ins := 0, 0
	for _, e := range tr.Events() {
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
	if outs != stats.ScaleOuts || ins != stats.ScaleIns {
		t.Fatalf("trace has %d/%d scale events, stats say %d/%d", outs, ins, stats.ScaleOuts, stats.ScaleIns)
	}
	// Every record landed on a device that was active at placement time —
	// scale-in must not strand placements on released devices.
	for _, r := range recs {
		if r.Device < 0 || r.Device >= 4 {
			t.Fatalf("record %d on impossible device %d", r.ID, r.Device)
		}
	}
}

// TestPinnedFleetMatchesFixedDevices: an autoscaler pinned at Min == Max
// can never actuate, so its decision stream — records and trace — must be
// identical to the plain fixed fleet's. This is the bit-identity guarantee
// ISSUE 9 demands with the autoscaler disabled, plus the stronger claim
// that merely enabling the control plane changes nothing.
func TestPinnedFleetMatchesFixedDevices(t *testing.T) {
	catalog := synthCatalog()
	arrivals := fleetArrivals()
	fixed := &Split{Knobs: engine.Knobs{Alpha: 4, Elastic: sched.DefaultElastic(), EnforceDeadlines: true,
		Devices: 3, Placement: "round-robin"}}
	pinned := &Split{Knobs: engine.Knobs{Alpha: 4, Elastic: sched.DefaultElastic(), EnforceDeadlines: true,
		Placement: "round-robin",
		Fleet:     fleet.AutoscaleConfig{Min: 3, Max: 3}}}
	trFixed, trPinned := trace.New(), trace.New()
	recsFixed := fixed.Run(arrivals, catalog, trFixed)
	recsPinned, stats := pinned.RunWithStats(arrivals, catalog, trPinned)
	if !reflect.DeepEqual(recsFixed, recsPinned) {
		t.Fatalf("pinned autoscaler changed records:\nfixed:  %+v\npinned: %+v", recsFixed, recsPinned)
	}
	if !reflect.DeepEqual(trFixed.Events(), trPinned.Events()) {
		t.Fatal("pinned autoscaler changed the trace")
	}
	if stats.ScaleOuts != 0 || stats.ScaleIns != 0 {
		t.Fatalf("pinned controller actuated: %+v", stats)
	}
	// And the fixed fleet's stats report the classic cost bill.
	_, fixedStats := fixed.RunWithStats(arrivals, catalog, nil)
	horizon := 0.0
	for _, r := range recsFixed {
		if r.DoneMs > horizon {
			horizon = r.DoneMs
		}
	}
	if want := 3 * horizon; fixedStats.DeviceHoursMs != want {
		t.Fatalf("fixed fleet device-hours = %.1f, want %.1f", fixedStats.DeviceHoursMs, want)
	}
}

// TestAdmissionRejectsAtTheDoor: a one-token bucket admits the first
// arrival of each refill window and rejects the rest with typed records
// and Drop trace events carrying the shared reason.
func TestAdmissionRejectsAtTheDoor(t *testing.T) {
	catalog := synthCatalog()
	var arrivals []workload.Arrival
	for i := 0; i < 10; i++ {
		arrivals = append(arrivals, workload.Arrival{ID: i, Model: "short", AtMs: float64(i)})
	}
	s := &Split{Knobs: engine.Knobs{
		Alpha:     4,
		Elastic:   sched.DefaultElastic(),
		Admission: fleet.AdmissionConfig{Mode: fleet.AdmitTokenBucket, RatePerSec: 1, Burst: 2},
	}}
	tr := trace.New()
	recs, stats := s.RunWithStats(arrivals, catalog, tr)
	if len(recs) != len(arrivals) {
		t.Fatalf("%d records for %d arrivals", len(recs), len(arrivals))
	}
	rejected := 0
	for _, r := range recs {
		if r.Outcome == OutcomeAdmission {
			rejected++
			if r.StartMs != -1 || r.DoneMs != r.ArriveMs {
				t.Fatalf("rejected record has execution times: %+v", r)
			}
		}
	}
	if rejected != 8 {
		t.Fatalf("rejected %d of 10 with burst 2, want 8", rejected)
	}
	if stats.Admitted != 2 || stats.Rejected != 8 {
		t.Fatalf("stats = %+v, want 2 admitted / 8 rejected", stats)
	}
	drops := 0
	for _, e := range tr.Events() {
		if e.Kind == trace.Drop {
			drops++
		}
	}
	if drops != rejected {
		t.Fatalf("%d drop events for %d rejections", drops, rejected)
	}
}
