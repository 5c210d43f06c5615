package policy

import (
	"testing"

	"split/internal/engine"
	"split/internal/gpusim"
	"split/internal/place"
	"split/internal/sched"
	"split/internal/trace"
	"split/internal/workload"
)

// FuzzPlacement drives the fleet simulator with fuzzer-chosen workloads,
// fleet sizes and placement policies, and checks the structural invariants
// that must hold for any input: every arrival yields exactly one record
// owned by exactly one in-range device, outcome counts conserve
// (served + shed + canceled + faulted == arrivals), and each device's
// timeline stays sequential (no overlapping blocks).
func FuzzPlacement(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(0), uint8(30), false)
	f.Add(int64(7), uint8(4), uint8(1), uint8(60), true)
	f.Add(int64(42), uint8(1), uint8(2), uint8(10), true)
	f.Fuzz(func(t *testing.T, seed int64, ndev, policy, count uint8, lifecycle bool) {
		devices := int(ndev%4) + 1
		names := place.Names()
		placement := names[int(policy)%len(names)]
		catalog := synthCatalog()
		arrivals := workload.MustGenerate(workload.Config{
			Models:         []string{"long", "short", "huge"},
			MeanIntervalMs: 8,
			Count:          int(count%120) + 1,
			Seed:           seed,
		})
		if lifecycle {
			// Exercise deadline shedding and cancellation deterministically:
			// every 5th request gets a tight deadline, every 7th a cancel.
			for i := range arrivals {
				if i%5 == 2 {
					arrivals[i].DeadlineMs = 3
				}
				if i%7 == 3 {
					arrivals[i].CancelAtMs = arrivals[i].AtMs + 10
				}
			}
		}
		s := &Split{Knobs: engine.Knobs{
			Alpha:            4,
			Elastic:          sched.DefaultElastic(),
			EnforceDeadlines: lifecycle,
			Devices:          devices,
			Placement:        placement,
			Faults:           &gpusim.FaultInjector{Seed: seed, SpikeProb: 0.1, SpikeFactor: 1.5, FailProb: 0.05, MaxRetries: 1},
		}}
		tr := trace.New()
		recs := s.Run(arrivals, catalog, tr)
		assertFleetInvariants(t, placement, arrivals, recs, tr, devices)
	})
}
