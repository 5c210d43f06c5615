package serve

import (
	"strings"
	"testing"

	"split/internal/engine"
	"split/internal/obs"
	"split/internal/place"
	"split/internal/trace"
)

// TestServePartitionConcurrency: two single-block requests on the two
// partition lanes of one device must execute concurrently — each stretched
// by the efficiency curve, neither waiting for the other — and the run
// must export the gated split_partition_* families with Part-tagged block
// events. An unpartitioned server must export none of them.
func TestServePartitionConcurrency(t *testing.T) {
	partitioned := func(c *Config) {
		c.Partitions = 2
		c.PartitionWidth = place.WidthFixed
		c.Placement = place.RoundRobin
	}
	// On the stepped clock the concurrency is exact: arriving together, both
	// requests start the instant they arrive, each on its own lane. Serial
	// lanes would make the second wait the first's whole stretched block.
	cfg := Config{Knobs: engine.Knobs{Alpha: 4}, Catalog: lifecycleCatalog()}
	partitioned(&cfg)
	stepped, sim := startStepped(t, cfg)
	got, errs := make(fates, 2), make([]error, 2)
	for i := range got {
		arriveAt(sim, stepped, 0, "solo", 0, got, errs, i)
	}
	sim.Run()
	for i, out := range got {
		if errs[i] != nil || out.err != nil {
			t.Fatalf("req %d: %v %v", i, errs[i], out.err)
		}
		if wait := out.req.StartMs - out.req.ArriveMs; wait != 0 {
			t.Errorf("req %d waited %v virtual ms — partitions are serializing", i, wait)
		}
		if out.req.Partition != i {
			t.Errorf("req %d served on partition %d", i, out.req.Partition)
		}
	}

	// The metric surface, on the wall clock.
	srv, reg, ring := startLifecycle(t, partitioned)
	var chans []chan outcome
	for i := 0; i < 2; i++ {
		_, ch, err := srv.enqueue("solo", 0)
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
		if out.req.Partition != i {
			t.Errorf("req %d served on partition %d", i, out.req.Partition)
		}
	}
	parts := map[int8]bool{}
	for _, e := range ring.Snapshot() {
		if e.Kind == trace.StartBlock {
			parts[e.Part] = true
		}
	}
	if !parts[0] || !parts[1] {
		t.Errorf("StartBlock events cover partitions %v, want both 0 and 1", parts)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), obs.MetricPartitionBusyMs) ||
		!strings.Contains(sb.String(), obs.MetricPartitionBlocks) {
		t.Error("partitioned server missing split_partition_* families")
	}
	blocks := int64(0)
	for _, p := range []string{"0", "1"} {
		blocks += reg.Counter(obs.MetricPartitionBlocks, "", "device", "0", "part", p).Value()
	}
	if blocks != 2 {
		t.Errorf("per-partition block counters sum to %d, want 2", blocks)
	}

	// Unpartitioned servers keep the pre-partition metric surface.
	single, reg1, _ := startLifecycle(t, nil)
	if _, ch, err := single.enqueue("quick", 0); err != nil {
		t.Fatal(err)
	} else if out := await(t, ch); out.err != nil {
		t.Fatal(out.err)
	}
	var sb1 strings.Builder
	if err := reg1.WritePrometheus(&sb1); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb1.String(), "split_partition_") {
		t.Error("unpartitioned server exported split_partition_* families")
	}
}

// TestServeScaleInThenBurst is the serving-path half of the affinity
// re-homing regression: after a device leaves the active set, its evicted
// models must re-home onto the least-loaded survivor, not pile onto the
// fewest-warm one that is currently drowning in the drained backlog.
func TestServeScaleInThenBurst(t *testing.T) {
	srv, _, _ := startLifecycle(t, func(c *Config) {
		c.Devices = 3
		c.Placement = place.Affinity
	})
	// Home one model per device: first sightings claim fewest-warm in ID
	// order.
	for i, m := range []string{"work", "solo", "quick"} {
		_, ch, err := srv.enqueue(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		out := await(t, ch)
		if out.err != nil {
			t.Fatal(out.err)
		}
		if out.req.Device != i {
			t.Fatalf("model %s homed on device %d, want %d", m, out.req.Device, i)
		}
	}
	// Scale device 2 out of the active set: its home ("quick") is evicted.
	srv.mu.Lock()
	srv.eng.SetActive(2)
	srv.mu.Unlock()
	// Pile backlog onto device 0 so the survivors' loads diverge.
	var chans []chan outcome
	for i := 0; i < 3; i++ {
		_, ch, err := srv.enqueue("work", 0)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	// The evicted model's next arrival must re-home to device 1 — the
	// least-loaded survivor — not device 0 (the fewest-warm tie-break
	// would have picked 0 before the re-homing fix).
	_, ch, err := srv.enqueue("quick", 0)
	if err != nil {
		t.Fatal(err)
	}
	out := await(t, ch)
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.req.Device != 1 {
		t.Errorf("evicted model re-homed to device %d, want least-loaded survivor 1", out.req.Device)
	}
	// And it sticks: the re-homed device is the model's new home.
	_, ch2, err := srv.enqueue("quick", 0)
	if err != nil {
		t.Fatal(err)
	}
	out2 := await(t, ch2)
	if out2.err != nil {
		t.Fatal(out2.err)
	}
	if out2.req.Device != 1 {
		t.Errorf("re-homed model moved again to device %d", out2.req.Device)
	}
	for _, ch := range chans {
		await(t, ch)
	}
}
