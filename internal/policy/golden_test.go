package policy

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"split/internal/fleet"
	"split/internal/gpusim"
	"split/internal/model"
	"split/internal/trace"
	"split/internal/workload"
)

// goldenCatalog is the five-model deployment of the paper's evaluation with
// its block times written out by hand (rounded from the zoo's GA plans), so
// the golden digests below pin the scheduler and nothing upstream of it.
func goldenCatalog() Catalog {
	one := func(name string, class model.RequestClass, ms float64) *model.Graph {
		return &model.Graph{Name: name, Domain: "t", Class: class, Ops: []model.Op{{Name: "op", TimeMs: ms}}}
	}
	graphs := map[string]*model.Graph{
		"yolov2":    one("yolov2", model.Short, 10.8),
		"googlenet": one("googlenet", model.Short, 13.2),
		"gpt2":      one("gpt2", model.Short, 20.4),
		"resnet50":  one("resnet50", model.Long, 28.35),
		"vgg19":     one("vgg19", model.Long, 67.5),
	}
	plans := map[string]*model.SplitPlan{
		"resnet50": {Model: "resnet50", Cuts: []int{1}, BlockTimesMs: []float64{16.16, 16.20}},
		"vgg19":    {Model: "vgg19", Cuts: []int{1, 2}, BlockTimesMs: []float64{25.24, 26.08, 25.79}},
	}
	return NewCatalog(graphs, plans)
}

// goldenArrivals is cmd/splitperf's sim_features population at 5 k
// arrivals: three cohorts, the interactive one carrying client deadlines
// and cancellations.
func goldenArrivals(t *testing.T) []workload.Arrival {
	t.Helper()
	arrivals, err := workload.GenerateCohorts(workload.CohortSetConfig{
		Cohorts: []workload.Cohort{
			{
				Name:               "interactive",
				Models:             []string{"yolov2", "googlenet", "resnet50", "vgg19", "gpt2"},
				Process:            workload.Process{Kind: workload.ProcPoisson, MeanIntervalMs: 24},
				DeadlineMs:         400,
				DeadlineJitterFrac: 0.5,
				CancelFrac:         0.02,
				CancelAfterMs:      60,
			},
			{
				Name:   "edge-burst",
				Models: []string{"yolov2", "googlenet"},
				Process: workload.Process{
					Kind: workload.ProcMMPP, MeanIntervalMs: 120,
					BurstIntervalMs: 20, CalmDwellMs: 4000, BurstDwellMs: 1000,
				},
			},
			{
				Name:     "batch",
				Models:   []string{"vgg19", "gpt2"},
				Process:  workload.Process{Kind: workload.ProcLogNormal, MeanIntervalMs: 90, Sigma: 1.2},
				Envelope: &workload.Envelope{PeriodMs: 600000, Factors: []float64{0.5, 1, 2, 1}},
			},
		},
		Count: 5000,
		Seed:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return arrivals
}

// goldenDigest folds every field of every record and every trace event
// into one FNV-1a value.
func goldenDigest(recs []Record, events []trace.Event) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	for _, r := range recs {
		u64(uint64(r.ID))
		str(r.Model)
		str(string(r.Class))
		f64(r.ArriveMs)
		f64(r.StartMs)
		f64(r.DoneMs)
		f64(r.ExtMs)
		u64(uint64(r.Preemptions))
		if r.Split {
			u64(1)
		} else {
			u64(0)
		}
		str(r.Outcome)
		u64(uint64(r.Device))
	}
	for _, e := range events {
		f64(e.AtMs)
		str(e.Kind.String())
		u64(uint64(int64(e.ReqID)))
		str(e.Model)
		u64(uint64(e.Block))
		u64(uint64(e.Device))
		u64(uint64(e.Batch))
		u64(uint64(e.Part))
		str(e.Detail())
	}
	return h.Sum64()
}

// allFeatures is the configuration with every knob on.
func allFeatures() *Split {
	s := NewSplit()
	s.Placement = "least-loaded"
	s.BatchMax = 4
	s.Partitions = 2
	s.PartitionWidth = "adaptive"
	s.EnforceDeadlines = true
	s.PredictiveShed = true
	s.Fleet = fleet.AutoscaleConfig{Min: 1, Max: 4}
	s.Admission = fleet.AdmissionConfig{Mode: fleet.AdmitTokenBucket, RatePerSec: 70, Burst: 40}
	s.Faults = &gpusim.FaultInjector{Seed: 7, SpikeProb: .01, SpikeFactor: 3, FailProb: .005, MaxRetries: 2}
	return s
}

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
		// whose Arrive events skip Algorithm 1's explain path.
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
