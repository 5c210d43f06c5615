package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"

	"split/internal/core"
	"split/internal/fleet"
	"split/internal/gpusim"
	"split/internal/metrics"
	"split/internal/policy"
	"split/internal/stats"
	"split/internal/trace"
	"split/internal/workload"
	"split/internal/zoo"
)

// alpha is the paper's headline latency-target multiplier: a request meets
// its target when its response ratio e2e/t_ext is at most alpha.
const alpha = 4

// shortModels are the Table-1 short models whose e2e spread is the paper's
// jitter metric (Figure 7).
var shortModels = []string{"yolov2", "googlenet", "gpt2"}

// Default sizes; every workload multiplies them by env.scale.
const (
	cohortArrivals   = 1_000_000
	featuresArrivals = 200_000
	gridSeeds        = 40
	// gridRequests is the length of every Table-2 scenario trace.
	gridRequests = 1000
)

// cohortMix is the heterogeneous three-cohort population of the root
// package's million-request sweep: steady interactive traffic over the five
// Table-1 models, bursty MMPP edge traffic, and a diurnally modulated
// heavy-tailed batch population. With lifecycle set, the interactive cohort
// carries client deadlines and cancellations, which is what gives the
// deadline sweeps and the cancel path of sim_features something to do.
func cohortMix(count int, seed int64, lifecycle bool) workload.CohortSetConfig {
	interactive := workload.Cohort{
		Name:    "interactive",
		Models:  zoo.BenchmarkModels,
		Process: workload.Process{Kind: workload.ProcPoisson, MeanIntervalMs: 24},
	}
	if lifecycle {
		interactive.DeadlineMs = 400
		interactive.DeadlineJitterFrac = 0.5
		interactive.CancelFrac = 0.02
		interactive.CancelAfterMs = 60
	}
	return workload.CohortSetConfig{
		Cohorts: []workload.Cohort{
			interactive,
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
		Count: count,
		Seed:  seed,
	}
}

// plainSplit is sim_cohort_1m's system: the paper's scheduler on a fixed
// four-device least-loaded fleet, every optional feature off.
func plainSplit() *policy.Split {
	s := policy.NewSplit()
	s.Devices = 4
	s.Placement = "least-loaded"
	return s
}

// featureSplit is sim_features' system: every optional mechanism of the
// simulator switched on at once, so the batch planner, the partition
// ledger, the autoscaler, the admission gate, the deadline sweeps and fault
// injection all do work in one run.
func featureSplit() *policy.Split {
	s := policy.NewSplit()
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

// scaled shrinks a default size for smoke runs, never below floor.
func scaled(n int, scale float64, floor int) int {
	return max(int(math.Round(float64(n)*scale)), floor)
}

// digester folds simulator records into one FNV-1a value. Two runs that
// made the same decisions produce the same digest, so a change that claims
// to speed the simulator up without changing it must leave it alone.
//
// The hash is written out by hand (FNV-1a, 64 bit) so that digesting a
// million records allocates nothing: the digest of one pass must not show
// up in the allocation count of the next.
type digester struct{ h uint64 }

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func newDigester() *digester { return &digester{h: fnvOffset64} }

func (d *digester) u64(v uint64) {
	for i := 0; i < 8; i++ {
		d.h = (d.h ^ (v & 0xff)) * fnvPrime64
		v >>= 8
	}
}

func (d *digester) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digester) str(s string) {
	d.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		d.h = (d.h ^ uint64(s[i])) * fnvPrime64
	}
}

func (d *digester) records(recs []policy.Record) {
	for i := range recs {
		r := &recs[i]
		d.u64(uint64(r.ID))
		d.str(r.Model)
		d.f64(r.ArriveMs)
		d.f64(r.StartMs)
		d.f64(r.DoneMs)
		d.f64(r.ExtMs)
		d.u64(uint64(r.Preemptions))
		d.str(r.Outcome)
		d.u64(uint64(r.Device))
	}
}

// digestOf is the digest of one run's records.
func digestOf(recs []policy.Record) uint64 {
	d := newDigester()
	d.records(recs)
	return d.h
}

// qos is the quality a workload's requests received, in the workload's own
// clock: simulated milliseconds for the sim_* workloads, wall milliseconds
// at the client for the serve_* workloads.
type qos struct {
	latP50Ms, latP99Ms float64
	rrP50, rrP99       float64
	// okFrac is the share of judged requests served within the latency
	// target; anything shed, rejected or failed misses it.
	okFrac float64
	// servedFrac is served over attempted.
	servedFrac    float64
	jitterShortMs float64
	// n is the number of latency samples behind the percentiles.
	n int
}

// shortJitterMs is the paper's jitter figure (Figure 7): the mean, over
// the short models present, of the standard deviation of their end-to-end
// latency. jitterByModel maps a model to that standard deviation.
func shortJitterMs(jitterByModel map[string]float64, short []string) float64 {
	var sum float64
	var n int
	for _, m := range short {
		if j, ok := jitterByModel[m]; ok {
			sum += j
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// recordQoS summarizes simulator records. attempted counts every arrival;
// judged is the subset the latency target applies to (everything, except
// on sim_features where a front-door rejection is the gate doing its job).
func recordQoS(judged []policy.Record, attempted int) qos {
	lat := make([]float64, 0, len(judged))
	rr := make([]float64, 0, len(judged))
	ok := 0
	for i := range judged {
		r := &judged[i]
		if !r.Served() {
			continue
		}
		ratio := r.ResponseRatio()
		lat = append(lat, r.E2EMs())
		rr = append(rr, ratio)
		if ratio <= alpha {
			ok++
		}
	}
	return newQoS(lat, rr, ok, len(judged), attempted,
		shortJitterMs(metrics.JitterByModel(judged), shortModels))
}

// newQoS turns the latencies and response ratios of the served requests
// (which it sorts in place), the count that met the target, and the sizes
// they are shares of, into a qos.
func newQoS(lat, rr []float64, ok, judged, attempted int, jitterShortMs float64) qos {
	sort.Float64s(lat)
	sort.Float64s(rr)
	return qos{
		latP50Ms: percentile(lat, 50), latP99Ms: percentile(lat, 99),
		rrP50: percentile(rr, 50), rrP99: percentile(rr, 99),
		okFrac:        float64(ok) / float64(judged),
		servedFrac:    float64(len(lat)) / float64(attempted),
		jitterShortMs: jitterShortMs,
		n:             len(lat),
	}
}

// outcomeCheck verifies the simulator's conservation laws on one run: one
// record per arrival, each arrival's id exactly once, and every record in
// a known outcome, so that the outcomes sum to the arrivals. It keeps its
// scratch between runs so that checking allocates nothing.
type outcomeCheck struct {
	seen []bool
}

// run returns the number of served and of admission-rejected records.
func (c *outcomeCheck) run(recs []policy.Record, arrivals int) (served, rejected int, err error) {
	if len(recs) != arrivals {
		return 0, 0, fmt.Errorf("%d records for %d arrivals", len(recs), arrivals)
	}
	if cap(c.seen) < arrivals {
		c.seen = make([]bool, arrivals)
	}
	seen := c.seen[:arrivals]
	for i := range seen {
		seen[i] = false
	}
	for i := range recs {
		id := recs[i].ID
		if id < 0 || id >= arrivals || seen[id] {
			return 0, 0, fmt.Errorf("record id %d is outside the trace or reported twice", id)
		}
		seen[id] = true
		switch recs[i].Outcome {
		case policy.OutcomeServed:
			served++
		case policy.OutcomeAdmission:
			rejected++
		case policy.OutcomeDeadline, policy.OutcomeCanceled, policy.OutcomeDeviceFault:
		default:
			return 0, 0, fmt.Errorf("record id %d has unknown outcome %q", id, recs[i].Outcome)
		}
	}
	return served, rejected, nil
}

// cohortRunner is sim_cohort_1m and sim_features: one pre-generated cohort
// trace replayed through one policy.Split configuration.
type cohortRunner struct {
	sys      *policy.Split
	catalog  policy.Catalog
	arrivals []workload.Arrival
	gated    bool
	check    outcomeCheck
	// recs and digest are the latest pass's records and their digest.
	recs   []policy.Record
	digest uint64
}

func setupCohort(e *env, arrivals int, features bool) (*cohortRunner, error) {
	var dep *core.Deployment
	var err error
	e.spans.in("deploy", func() { dep, err = core.DefaultPipeline().Deploy() })
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	r := &cohortRunner{sys: plainSplit(), catalog: dep.Catalog}
	if features {
		r.sys, r.gated = featureSplit(), true
	}
	e.spans.in("generate", func() {
		r.arrivals, err = workload.GenerateCohorts(cohortMix(arrivals, e.seed, features))
	})
	if err != nil {
		return nil, fmt.Errorf("generate cohorts: %w", err)
	}
	return r, nil
}

func (r *cohortRunner) pass(e *env) (passOut, error) {
	var fs policy.FleetStats
	var cost heapCost
	e.spans.in("run", func() {
		cost = measured(func() { r.recs, fs = r.sys.RunWithStats(r.arrivals, r.catalog, nil) })
	})
	served, rejected, err := r.check.run(r.recs, len(r.arrivals))
	if err != nil {
		return passOut{}, err
	}
	if r.gated && (fs.Admitted+fs.Rejected != len(r.arrivals) || fs.Rejected != rejected) {
		return passOut{}, fmt.Errorf("fleet stats admit %d and reject %d of %d arrivals; records show %d rejected",
			fs.Admitted, fs.Rejected, len(r.arrivals), rejected)
	}
	r.digest = digestOf(r.recs)
	return passOut{cost: cost, attempted: len(r.recs), served: served, digest: r.digest}, nil
}

func (r *cohortRunner) quality(e *env) (q qos, err error) {
	e.spans.in("summarize", func() {
		judged := r.recs
		if r.gated {
			judged = metrics.Admitted(r.recs)
		}
		q = recordQoS(judged, len(r.recs))
	})
	if r.gated {
		// The features run once more with the product's tracer on: the
		// event stream must fold without a problem and leave the records
		// as they were.
		err = r.checkTraced(e)
	}
	return q, err
}

func (r *cohortRunner) close(*env) error { return nil }

// checkTraced runs the trace through the system again with the product's
// tracer attached and folds the events into spans, as every traced
// consumer does.
func (r *cohortRunner) checkTraced(e *env) error {
	var recs []policy.Record
	var tree *trace.SpanTree
	tr := trace.New()
	e.spans.in("run_traced", func() { recs, _ = r.sys.RunWithStats(r.arrivals, r.catalog, tr) })
	e.spans.in("build_spans", func() { tree = trace.BuildSpans(tr.Events()) })
	if len(tree.Problems) > 0 {
		return fmt.Errorf("span fold reports %d problems, first: %s", len(tree.Problems), tree.Problems[0])
	}
	// A request rejected at the door never arrives, so it has no span.
	if admitted := len(metrics.Admitted(recs)); len(tree.Requests) != admitted {
		return fmt.Errorf("span fold has %d requests for %d admitted records", len(tree.Requests), admitted)
	}
	if d := digestOf(recs); d != r.digest {
		return fmt.Errorf("tracing changed the records: digest %016x, untraced %016x", d, r.digest)
	}
	return nil
}

// gridRunner is sim_paper_grid: the paper's whole evaluation, many small
// runs. Trace generation and the metrics pass are inside the timed
// interval, because that is what regenerating Figures 6 and 7 costs; the
// digest and the checks between two seeds are not. Nothing but a few
// numbers per run outlives a seed, so the process's peak memory is the
// simulator's, not the harness's.
type gridRunner struct {
	dep   *core.Deployment
	seeds int
	seed  int64
	check outcomeCheck

	// split holds the quality of every SPLIT run of the latest pass.
	split []qos
	// rtaViolAt4 and rtaJitterMs are RT-A's headline numbers per run.
	rtaViolAt4, rtaJitterMs []float64
}

func setupGrid(e *env) (*gridRunner, error) {
	var dep *core.Deployment
	var err error
	e.spans.in("deploy", func() { dep, err = core.DefaultPipeline().Deploy() })
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	return &gridRunner{dep: dep, seeds: scaled(gridSeeds, e.scale, 1), seed: e.seed}, nil
}

func (g *gridRunner) pass(e *env) (out passOut, err error) {
	g.split, g.rtaViolAt4, g.rtaJitterMs = g.split[:0], g.rtaViolAt4[:0], g.rtaJitterMs[:0]
	systems := core.DefaultSystems()
	alphas := metrics.DefaultAlphas()
	d := newDigester()
	var m meter
	runtime.GC()
	e.spans.in("run", func() {
		for i := 0; i < g.seeds; i++ {
			m.begin()
			runs := g.dep.RunAllScenarios(systems, g.seed+int64(i))
			for _, run := range runs {
				sinkF += metrics.ViolationCurve(run.Records, alphas)[alpha-2]
				sinkF += metrics.JitterByModel(run.Records)["gpt2"]
			}
			m.end()
			for _, run := range runs {
				served, _, cerr := g.check.run(run.Records, gridRequests)
				if cerr != nil {
					err = fmt.Errorf("seed %d %s/%s: %w", g.seed+int64(i), run.Scenario.Name, run.System, cerr)
					return
				}
				d.str(run.System)
				d.records(run.Records)
				out.attempted += len(run.Records)
				out.served += served
				switch run.System {
				case "SPLIT":
					g.split = append(g.split, recordQoS(run.Records, len(run.Records)))
				case "RT-A":
					g.rtaViolAt4 = append(g.rtaViolAt4, metrics.ViolationRate(run.Records, alpha))
					g.rtaJitterMs = append(g.rtaJitterMs, shortJitterMs(metrics.JitterByModel(run.Records), shortModels))
				}
			}
		}
	})
	out.cost = m.cost
	out.digest = d.h
	return out, err
}

// quality reports SPLIT's numbers over the grid: each is the mean over
// SPLIT's runs of that run's figure, as in Figures 6 and 7. It fails unless
// SPLIT beats RT-A on both of the paper's headline metrics.
func (g *gridRunner) quality(e *env) (q qos, err error) {
	e.spans.in("summarize", func() {
		q = meanQoS(g.split)
		if len(g.split) == 0 || len(g.rtaViolAt4) == 0 {
			err = fmt.Errorf("the grid ran no SPLIT or no RT-A system")
			return
		}
		rtaViol, rtaJitterMs := stats.Mean(g.rtaViolAt4), stats.Mean(g.rtaJitterMs)
		if !(1-q.okFrac < rtaViol) || !(q.jitterShortMs < rtaJitterMs) {
			err = fmt.Errorf("SPLIT (viol@4 %.4f, short jitter %.2f ms) does not beat RT-A (%.4f, %.2f ms)",
				1-q.okFrac, q.jitterShortMs, rtaViol, rtaJitterMs)
		}
	})
	return q, err
}

func (g *gridRunner) close(*env) error { return nil }
