package policy

import (
	"reflect"
	"testing"

	"split/internal/engine"
	"split/internal/gpusim"
	"split/internal/place"
	"split/internal/sched"
	"split/internal/trace"
	"split/internal/workload"
)

// fleetArrivals is a lifecycle-heavy trace: deadlines that expire, a
// cancellation, and enough back-to-back load to force queueing and
// preemption on every device.
func fleetArrivals() []workload.Arrival {
	return []workload.Arrival{
		{ID: 0, Model: "long", AtMs: 0},
		{ID: 1, Model: "long", AtMs: 1},
		{ID: 2, Model: "short", AtMs: 2, DeadlineMs: 4}, // expires queued on a busy device
		{ID: 3, Model: "long", AtMs: 3, CancelAtMs: 12}, // canceled mid-lifecycle
		{ID: 4, Model: "short", AtMs: 5},
		{ID: 5, Model: "huge", AtMs: 6},
		{ID: 6, Model: "short", AtMs: 40},
		{ID: 7, Model: "long", AtMs: 41},
		{ID: 8, Model: "short", AtMs: 42, DeadlineMs: 500},
		{ID: 9, Model: "long", AtMs: 90},
	}
}

func fleetFaults() *gpusim.FaultInjector {
	return &gpusim.FaultInjector{Seed: 7, SpikeProb: 0.2, SpikeFactor: 1.5, FailProb: 0.1, MaxRetries: 2}
}

// TestFleetSingleDeviceIdentity is the PR's core regression guarantee: a
// one-device fleet — under every placement policy — must reproduce the
// pre-fleet single-GPU run bit for bit, records and trace events alike.
func TestFleetSingleDeviceIdentity(t *testing.T) {
	catalog := synthCatalog()
	arrivals := fleetArrivals()
	build := func(devices int, placement string) *Split {
		return &Split{Knobs: engine.Knobs{
			Alpha:            4,
			Elastic:          sched.DefaultElastic(),
			EnforceDeadlines: true,
			PredictiveShed:   true,
			Faults:           fleetFaults(),
			Devices:          devices,
			Placement:        placement,
		}}
	}
	baseTr := trace.New()
	baseRecs := build(0, "").Run(arrivals, catalog, baseTr)
	for _, placement := range append(place.Names(), "") {
		tr := trace.New()
		recs := build(1, placement).Run(arrivals, catalog, tr)
		if !reflect.DeepEqual(baseRecs, recs) {
			t.Fatalf("placement %q on 1 device changed records:\nbase: %+v\ngot:  %+v", placement, baseRecs, recs)
		}
		if !reflect.DeepEqual(baseTr.Events(), tr.Events()) {
			t.Fatalf("placement %q on 1 device changed the trace", placement)
		}
	}
	for _, r := range baseRecs {
		if r.Device != 0 {
			t.Fatalf("single-device record %d on device %d", r.ID, r.Device)
		}
	}
	for _, e := range baseTr.Events() {
		if e.Kind == trace.Place {
			t.Fatalf("single-device run emitted a place event: %+v", e)
		}
	}
}

// TestFleetRoundRobinCycles checks the placement layer actually routes:
// round-robin must assign arrival k to device k mod N when all requests
// survive to a record.
func TestFleetRoundRobinCycles(t *testing.T) {
	catalog := synthCatalog()
	var arrivals []workload.Arrival
	for i := 0; i < 9; i++ {
		arrivals = append(arrivals, workload.Arrival{ID: i, Model: "short", AtMs: float64(i)})
	}
	tr := trace.New()
	s := &Split{Knobs: engine.Knobs{Alpha: 4, Elastic: sched.DefaultElastic(), Devices: 3, Placement: place.RoundRobin}}
	recs := s.Run(arrivals, catalog, tr)
	for _, r := range recs {
		if r.Device != r.ID%3 {
			t.Fatalf("round-robin placed req %d on device %d, want %d", r.ID, r.Device, r.ID%3)
		}
		if !r.Served() {
			t.Fatalf("req %d outcome %q", r.ID, r.Outcome)
		}
	}
	places := 0
	for _, e := range tr.Events() {
		if e.Kind == trace.Place {
			places++
			if int(e.Device) != e.ReqID%3 {
				t.Fatalf("place event for req %d on device %d", e.ReqID, e.Device)
			}
		}
	}
	if places != len(arrivals) {
		t.Fatalf("%d place events for %d arrivals", places, len(arrivals))
	}
}

// TestFleetDevicesAreSequentialTimelines: within one device blocks must
// never overlap, and every request's blocks must stay on its placed device.
func TestFleetDevicesAreSequentialTimelines(t *testing.T) {
	catalog := synthCatalog()
	arrivals := workload.MustGenerate(workload.Config{
		Models: []string{"long", "short", "huge"}, MeanIntervalMs: 6, Count: 200, Seed: 11,
	})
	for _, placement := range place.Names() {
		tr := trace.New()
		s := &Split{Knobs: engine.Knobs{Alpha: 4, Elastic: sched.DefaultElastic(), Devices: 4, Placement: placement, Faults: fleetFaults()}}
		recs := s.Run(arrivals, catalog, tr)
		assertFleetInvariants(t, placement, arrivals, recs, tr, 4)
	}
}

// TestFleetSpeedsUpMakespan: N devices must finish a saturating burst
// materially earlier than one device — the basic point of a fleet.
func TestFleetSpeedsUpMakespan(t *testing.T) {
	catalog := synthCatalog()
	var arrivals []workload.Arrival
	for i := 0; i < 40; i++ {
		arrivals = append(arrivals, workload.Arrival{ID: i, Model: "long", AtMs: float64(i)})
	}
	makespan := func(devices int) float64 {
		s := &Split{Knobs: engine.Knobs{Alpha: 4, Elastic: sched.DefaultElastic(), Devices: devices, Placement: place.LeastLoaded}}
		last := 0.0
		for _, r := range s.Run(arrivals, catalog, nil) {
			if r.DoneMs > last {
				last = r.DoneMs
			}
		}
		return last
	}
	one, four := makespan(1), makespan(4)
	if four > one/2 {
		t.Fatalf("4 devices finished at %.1fms, 1 device at %.1fms — want at least 2x speedup", four, one)
	}
}

// assertFleetInvariants checks the fleet's structural invariants on a run:
// exactly one record per arrival, device ownership is unique and in range,
// outcomes conserve, and per-device block spans never overlap.
func assertFleetInvariants(t *testing.T, label string, arrivals []workload.Arrival, recs []Record, tr *trace.Tracer, devices int) {
	t.Helper()
	if len(recs) != len(arrivals) {
		t.Fatalf("%s: %d records for %d arrivals", label, len(recs), len(arrivals))
	}
	owner := map[int]int{}
	outcomes := map[string]int{}
	for _, r := range recs {
		if r.Device < 0 || r.Device >= devices {
			t.Fatalf("%s: req %d on device %d of %d", label, r.ID, r.Device, devices)
		}
		if _, dup := owner[r.ID]; dup {
			t.Fatalf("%s: req %d recorded twice", label, r.ID)
		}
		owner[r.ID] = r.Device
		switch r.Outcome {
		case OutcomeServed, OutcomeDeadline, OutcomeCanceled, OutcomeDeviceFault:
			outcomes[r.Outcome]++
		default:
			t.Fatalf("%s: req %d unknown outcome %q", label, r.ID, r.Outcome)
		}
	}
	total := 0
	for _, c := range outcomes {
		total += c
	}
	if total != len(arrivals) {
		t.Fatalf("%s: outcomes sum to %d, want %d", label, total, len(arrivals))
	}
	// Every event of a request must carry its owner device, and spans on
	// one device must be sequential.
	lastEnd := make([]float64, devices)
	for i := range lastEnd {
		lastEnd[i] = -1
	}
	for _, sp := range execIntervals(tr) {
		if want, ok := owner[sp.ReqID]; ok && sp.Device != want {
			t.Fatalf("%s: req %d ran a block on device %d but was recorded on %d", label, sp.ReqID, sp.Device, want)
		}
		if sp.StartMs < lastEnd[sp.Device]-1e-9 {
			t.Fatalf("%s: device %d block overlap: span starts %.4f before previous end %.4f",
				label, sp.Device, sp.StartMs, lastEnd[sp.Device])
		}
		if sp.EndMs > lastEnd[sp.Device] {
			lastEnd[sp.Device] = sp.EndMs
		}
	}
}
