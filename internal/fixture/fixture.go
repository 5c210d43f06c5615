// Package fixture is the golden workload the two drivers of
// internal/engine are checked on: the simulator's golden digests
// (internal/policy) and the server's sim-vs-serve equivalence test
// (internal/serve) read the same deployment, trace, configuration and
// event digest from here, so neither pastes a copy of the other's.
//
// Only tests import it. It cannot import internal/policy, whose own tests
// import it, so the deployment comes as graphs and plans for
// policy.NewCatalog, and the configuration as engine.Knobs.
package fixture

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"

	"split/internal/engine"
	"split/internal/fleet"
	"split/internal/gpusim"
	"split/internal/model"
	"split/internal/sched"
	"split/internal/trace"
	"split/internal/workload"
)

// Deployment is the five-model deployment of the paper's evaluation with
// its block times written out by hand (rounded from the zoo's GA plans), so
// a digest over it pins the scheduler and nothing upstream of it.
func Deployment() (map[string]*model.Graph, map[string]*model.SplitPlan) {
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
	return graphs, plans
}

// Arrivals is cmd/splitperf's sim_features population at 5 k arrivals:
// three cohorts, the interactive one carrying client deadlines and
// cancellations. IDs are the arrivals' indices.
func Arrivals() []workload.Arrival {
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
		panic(fmt.Sprintf("fixture: %v", err)) // the configuration is fixed
	}
	return arrivals
}

// AllFeatures is SPLIT's default configuration (α = 4, elastic splitting)
// with every other knob on: least-loaded placement over an autoscaled fleet
// of up to four devices, micro-batching, two adaptive partitions per
// device, deadlines with predictive shedding, a token-bucket admission gate
// and injected faults. It builds a fresh fault injector on every call.
func AllFeatures() engine.Knobs {
	return engine.Knobs{
		Alpha:            4,
		Elastic:          sched.DefaultElastic(),
		Placement:        "least-loaded",
		BatchMax:         4,
		Partitions:       2,
		PartitionWidth:   "adaptive",
		EnforceDeadlines: true,
		PredictiveShed:   true,
		Fleet:            fleet.AutoscaleConfig{Min: 1, Max: 4},
		Admission:        fleet.AdmissionConfig{Mode: fleet.AdmitTokenBucket, RatePerSec: 70, Burst: 40},
		Faults:           &gpusim.FaultInjector{Seed: 7, SpikeProb: .01, SpikeFactor: 3, FailProb: .005, MaxRetries: 2},
	}
}

// A Digest folds values into one FNV-1a hash, eight little-endian bytes per
// number and a length before each string.
type Digest struct {
	h   hash.Hash64
	buf [8]byte
}

// NewDigest returns an empty digest.
func NewDigest() *Digest { return &Digest{h: fnv.New64a()} }

// U64 folds in v.
func (d *Digest) U64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

// F64 folds in v's bits.
func (d *Digest) F64(v float64) { d.U64(math.Float64bits(v)) }

// Str folds in s, length first.
func (d *Digest) Str(s string) {
	d.U64(uint64(len(s)))
	d.h.Write([]byte(s))
}

// Events folds in every field of every event, the detail as rendered.
func (d *Digest) Events(events []trace.Event) {
	for _, e := range events {
		d.F64(e.AtMs)
		d.Str(e.Kind.String())
		d.U64(uint64(int64(e.ReqID)))
		d.Str(e.Model.String())
		d.U64(uint64(e.Block))
		d.U64(uint64(e.Device))
		d.U64(uint64(e.Batch))
		d.U64(uint64(e.Part))
		d.Str(e.Detail())
	}
}

// Sum returns the digest's value.
func (d *Digest) Sum() uint64 { return d.h.Sum64() }
