package policy

import (
	"testing"

	"split/internal/fixture"
	"split/internal/trace"
	"split/internal/workload"
)

// goldenCatalog is fixture.Deployment's five models.
func goldenCatalog() Catalog { return NewCatalog(fixture.Deployment()) }

// goldenArrivals is fixture.Arrivals, the sim_features population at 5 k
// arrivals.
func goldenArrivals(t *testing.T) []workload.Arrival {
	t.Helper()
	return fixture.Arrivals()
}

// goldenDigest folds every field of every record and every trace event
// into one FNV-1a value.
func goldenDigest(recs []Record, events []trace.Event) uint64 {
	d := fixture.NewDigest()
	for _, r := range recs {
		d.U64(uint64(r.ID))
		d.Str(r.Model)
		d.Str(string(r.Class))
		d.F64(r.ArriveMs)
		d.F64(r.StartMs)
		d.F64(r.DoneMs)
		d.F64(r.ExtMs)
		d.U64(uint64(r.Preemptions))
		if r.Split {
			d.U64(1)
		} else {
			d.U64(0)
		}
		d.Str(r.Outcome)
		d.U64(uint64(r.Device))
	}
	d.Events(events)
	return d.Sum()
}

// allFeatures is the configuration with every knob on.
func allFeatures() *Split { return &Split{Knobs: fixture.AllFeatures()} }

// TestSplitGoldenDigests pins records AND trace events of three systems on
// a fixed seed. The values were generated at the commit before the
// scheduler moved into internal/engine; the refactor must not move them.
func TestSplitGoldenDigests(t *testing.T) {
	plain := NewSplit()
	fleet4 := NewSplit()
	fleet4.Devices = 4
	fleet4.Placement = "least-loaded"
	catalog, arrivals := goldenCatalog(), goldenArrivals(t)
	for _, c := range []struct {
		name   string
		sys    *Split
		traced uint64
		// untraced is the digest of the records of a run with a nil tracer,
		// which narrates nothing.
		untraced uint64
	}{
		{"plain-1dev", plain, 0x8f89a3519d62cb88, 0x15784b6a86880dd4},
		{"fleet-4dev-least-loaded", fleet4, 0x74588f3a3eb7b432, 0x8e226acda5d164f1},
		{"all-features", allFeatures(), 0x2f0a3f663c821b54, 0x23fd4ea706d130f1},
	} {
		tr := trace.New()
		recs, _ := c.sys.RunWithStats(arrivals, catalog, tr)
		if got := goldenDigest(recs, tr.Events()); got != c.traced {
			t.Errorf("%s: records+trace digest %#016x, want %#016x (%d records, %d events)",
				c.name, got, c.traced, len(recs), tr.Len())
		}
		recs, _ = c.sys.RunWithStats(arrivals, catalog, nil)
		if got := goldenDigest(recs, nil); got != c.untraced {
			t.Errorf("%s: untraced records digest %#016x, want %#016x", c.name, got, c.untraced)
		}
	}
}

// TestBaselineGoldenDigests pins records and trace events of the five
// baseline systems on goldenArrivals. The values were generated at the
// commit before their run loops moved onto the shared arrival feed; that
// move, and any later one, must not change them.
func TestBaselineGoldenDigests(t *testing.T) {
	catalog, arrivals := goldenCatalog(), goldenArrivals(t)
	for _, c := range []struct {
		sys      System
		traced   uint64
		untraced uint64
	}{
		{NewClockWork(), 0xa9757a604fcbe4bc, 0x27a73ca0a5eb71e0},
		{NewPREMA(), 0x66cb64779cde8b58, 0x84d8e85b104aadd0},
		{NewRTA(), 0xfd0e0875d8128493, 0x3ac2f076e369881a},
		{NewREEF(), 0x8dac9b5aced9d7c9, 0xf4f19065ba856a22},
		{NewStreamParallel(), 0xb95b953e35c59619, 0xece72ad5819f7ad3},
	} {
		tr := trace.New()
		recs := c.sys.Run(arrivals, catalog, tr)
		if got := goldenDigest(recs, tr.Events()); got != c.traced {
			t.Errorf("%s: records+trace digest %#016x, want %#016x (%d records, %d events)",
				c.sys.Name(), got, c.traced, len(recs), tr.Len())
		}
		recs = c.sys.Run(arrivals, catalog, nil)
		if got := goldenDigest(recs, nil); got != c.untraced {
			t.Errorf("%s: untraced records digest %#016x, want %#016x", c.sys.Name(), got, c.untraced)
		}
	}
}
