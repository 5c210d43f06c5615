package policy

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"testing"

	"split/internal/trace"
)

// digestBytes is the FNV-1a value of one rendered export.
func digestBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// exportDigests renders a traced run through every export the tracer and
// the span fold offer and digests each one's bytes.
func exportDigests(t *testing.T, tr *trace.Tracer) [5]uint64 {
	t.Helper()
	var jsonl, csv, perfetto bytes.Buffer
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	tree := trace.BuildSpans(tr.Events())
	if err := tree.WritePerfetto(&perfetto); err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	return [5]uint64{
		digestBytes(jsonl.Bytes()), digestBytes(csv.Bytes()), digestBytes(perfetto.Bytes()),
		digestBytes(js), digestBytes([]byte(tree.Summary())),
	}
}

// TestExportGoldenDigests pins the bytes of every trace export — JSON
// lines, CSV, Perfetto, the span tree's JSON and its summary — for the
// three TestSplitGoldenDigests configurations and the five baselines on
// goldenArrivals. The values were generated while events still carried
// their details as strings; rendering them from numbers must not move a
// byte.
func TestExportGoldenDigests(t *testing.T) {
	plain := NewSplit()
	fleet4 := NewSplit()
	fleet4.Devices = 4
	fleet4.Placement = "least-loaded"
	catalog, arrivals := goldenCatalog(), goldenArrivals(t)
	for _, c := range []struct {
		name string
		sys  System
		// want is JSONL, CSV, Perfetto, span-tree JSON, Summary.
		want [5]uint64
	}{
		{"plain-1dev", plain, [5]uint64{0x2ae0273d0665f1f9, 0xd7da81c0adbd2505, 0xa9847b38cf5a86e4, 0xb701373c79a59cff, 0x49ec01efa6428f75}},
		{"fleet-4dev-least-loaded", fleet4, [5]uint64{0x83bf0b4c2bcf8419, 0x901f9eee076e81d6, 0x5765259fe66cb800, 0x97b1cc6f79dcb9c2, 0xebb6f2024cff4c1f}},
		{"all-features", allFeatures(), [5]uint64{0x4ecce76550931f0e, 0x06aaee3b429f5f95, 0x30ce7be588314b7d, 0xed9341b4b8abd292, 0x825cada0677d3e06}},
		{"ClockWork", NewClockWork(), [5]uint64{0x66947fac7ca39ac0, 0x58b4089283d9d2c1, 0x58fbabd780f3f78e, 0xc2d09c4b2a5cec4b, 0x861af33a426ca47c}},
		{"PREMA", NewPREMA(), [5]uint64{0x6a2489b0cf6a6d87, 0x9f51dac2ce4c912c, 0xd6ed57c451affa09, 0xf0f4009f7df7eb7c, 0x49aaacf47d050b0f}},
		{"RT-A", NewRTA(), [5]uint64{0x1b00cdaa14dd5c8f, 0x7a787cbb3b952057, 0xb447c50055f5ac00, 0xf4d437d980237e34, 0x66c33b0ef987c272}},
		{"REEF", NewREEF(), [5]uint64{0xb118b17f280b1c44, 0x43a3535eddbfea68, 0x215c69e0865bf943, 0x486acca5aec0349d, 0xc0b5385e1ee26ac9}},
		{"Stream-Parallel", NewStreamParallel(), [5]uint64{0x79906f6711cab6c1, 0x721a9b6d453f2239, 0x46000e4feaaa80d1, 0xae919bb9d16c1eeb, 0x7b2b906a20fca654}},
	} {
		tr := trace.New()
		c.sys.Run(arrivals, catalog, tr)
		if got := exportDigests(t, tr); got != c.want {
			t.Errorf("%s: export digests %#016x, want %#016x", c.name, got, c.want)
		}
	}
}

// TestSpanzWrappedRingGolden pins what /spanz?n= serves from a flight
// recorder that has wrapped: the n most recently arrived requests of the
// snapshot, in request order, serialized as the endpoint does.
func TestSpanzWrappedRingGolden(t *testing.T) {
	tr := trace.New()
	allFeatures().Run(goldenArrivals(t), goldenCatalog(), tr)
	ring := trace.NewRing(4096)
	for _, e := range tr.Events() {
		ring.Emit(e)
	}
	for _, c := range []struct {
		n    int
		want uint64
	}{
		{0, 0x393f6715fea29aae},
		{1, 0xfb00375f976cce94},
		{50, 0x9b2ad9f86e45120e},
		{100000, 0x393f6715fea29aae},
	} {
		js, err := json.Marshal(trace.SpanBuilder{MaxRequests: c.n}.Build(ring.Snapshot()))
		if err != nil {
			t.Fatal(err)
		}
		if got := digestBytes(js); got != c.want {
			t.Errorf("n=%d: span tree digest %#016x, want %#016x", c.n, got, c.want)
		}
	}
}
