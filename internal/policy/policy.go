// Package policy implements the four scheduling systems compared in the
// paper's evaluation (§5.3) — SPLIT, ClockWork, PREMA and the Runtime-Aware
// concurrent approach (RT-A) — plus the Stream-Parallel baseline of Figure 1,
// all running on the internal/gpusim discrete-event device.
//
// Each system consumes an identical arrival trace and a shared model
// catalog, and produces per-request Records from which internal/metrics
// computes the latency violation rate (Fig. 6) and jitter (Fig. 7).
package policy

import (
	"fmt"

	"split/internal/engine"
	"split/internal/model"
	"split/internal/sched"
	"split/internal/trace"
	"split/internal/workload"
)

// ModelInfo is the per-model knowledge a scheduler has: the isolated
// execution time the QoS target is based on, the class, and (for SPLIT) the
// offline split plan.
type ModelInfo struct {
	Name  string
	Class model.RequestClass
	// ExtMs is t_ext, the isolated unsplit execution time.
	ExtMs float64
	// Plan is the offline evenly-sized split plan. May be nil or unsplit
	// for systems that never split.
	Plan *model.SplitPlan
}

// Catalog maps model name to its info.
type Catalog map[string]*ModelInfo

// NewCatalog derives a catalog from graphs and optional split plans.
func NewCatalog(graphs map[string]*model.Graph, plans map[string]*model.SplitPlan) Catalog {
	c := make(Catalog, len(graphs))
	for name, g := range graphs {
		info := &ModelInfo{
			Name:  name,
			Class: g.Class,
			ExtMs: g.TotalTimeMs(),
		}
		if plans != nil {
			info.Plan = plans[name]
		}
		c[name] = info
	}
	return c
}

// BlocksFor returns a copy of the block plan SPLIT would execute for the
// model: the split plan's block times if present, otherwise a single
// unsplit block.
func (c Catalog) BlocksFor(name string) []float64 {
	info := c[name]
	if info == nil {
		panic(fmt.Sprintf("policy: unknown model %q", name))
	}
	if info.Plan != nil && len(info.Plan.BlockTimesMs) > 0 {
		return append([]float64(nil), info.Plan.BlockTimesMs...)
	}
	return []float64{info.ExtMs}
}

// Job resolves one arrival against the catalog into the engine's input —
// the request wrapper's lookup, shared by both drivers. ok is false for a
// model that is not deployed. The job's plan is the catalog's own slice, not
// a copy: plans are immutable once deployed (a redeploy installs a new
// ModelInfo), and neither the engine nor its requests write through it.
func (c Catalog) Job(id int, name string, deadlineMs float64) (job engine.Job, ok bool) {
	info := c[name]
	if info == nil {
		return engine.Job{}, false
	}
	info.job(&job, id, name, deadlineMs)
	return job, true
}

// job is Catalog.Job once the model is resolved, written into j field by
// field so a driver can reuse one Job for every arrival. name is the catalog
// key, which is what requests and traces carry.
func (m *ModelInfo) job(j *engine.Job, id int, name string, deadlineMs float64) {
	j.ID, j.Model, j.Class, j.ExtMs, j.DeadlineMs = id, name, m.Class, m.ExtMs, deadlineMs
	j.Plan = nil
	if m.Plan != nil {
		j.Plan = m.Plan.BlockTimesMs
	}
}

// Request outcomes beyond successful service, aliasing the shared
// trace.Reason* vocabulary the serving path's split_drops_total reasons
// also use, so sim and serve results line up label-for-label.
const (
	// OutcomeServed marks a completed request (the zero value, so legacy
	// construction sites keep producing served records).
	OutcomeServed = ""
	// OutcomeDeadline marks a request shed because its deadline passed (or,
	// under predictive shedding, became unmeetable).
	OutcomeDeadline = trace.ReasonDeadline
	// OutcomeCanceled marks a request canceled by its client.
	OutcomeCanceled = trace.ReasonCanceled
	// OutcomeAdmission marks a request rejected at the front door by the
	// fleet.Admission gate — never enqueued, never started. Rejections are
	// the overload-absorption mechanism, so QoS accounting (ViolationRate)
	// is normally computed over admitted records only; see
	// metrics.Admitted.
	OutcomeAdmission = trace.ReasonAdmission
	// OutcomeDeviceFault marks a request whose block kept failing past the
	// injected-fault retry budget.
	OutcomeDeviceFault = trace.ReasonDeviceFault
)

// Record is the per-request outcome every system reports: 88 bytes, laid
// out widest first so the narrow fields share one word. Model and Outcome
// are the only fields holding pointers.
type Record struct {
	ID    int
	Model string
	// Outcome is OutcomeServed for completed requests, else the shed
	// reason. For shed records DoneMs is the shed time, so E2E-derived
	// metrics are only meaningful when Served() is true.
	Outcome     string
	ArriveMs    float64
	StartMs     float64
	DoneMs      float64
	ExtMs       float64
	Preemptions int
	// Device is the fleet device the request was placed on; 0 on the
	// single-device systems. The engine refuses fleets wider than an int16
	// (engine.MaxDevices).
	Device int16
	Class  model.RequestClass
	// Split reports whether the request executed under a multi-block plan.
	Split bool
}

// RecordOf is the outcome record of a scheduler request that left the
// system at doneMs: served, or shed for the reason in outcome.
func RecordOf(r *sched.Request, doneMs float64, outcome string) Record {
	var rec Record
	rec.fill(r, doneMs, outcome)
	return rec
}

// fill makes rec RecordOf(r, doneMs, outcome) in place, field by field, so
// the simulator writes each record straight into its slot.
func (rec *Record) fill(r *sched.Request, doneMs float64, outcome string) {
	rec.ID, rec.Model, rec.Class = r.ID, r.Model, r.Class
	rec.ArriveMs, rec.StartMs, rec.DoneMs, rec.ExtMs = r.ArriveMs, r.StartMs, doneMs, r.ExtMs
	rec.Preemptions, rec.Split = r.Preemptions, len(r.BlockTimes) > 1
	rec.Outcome, rec.Device = outcome, int16(r.Device)
}

// The predicates take a pointer: a Record is 88 bytes, and the metrics walk
// hundreds of thousands of them per figure.

// Served reports whether the request completed normally.
func (r *Record) Served() bool { return r.Outcome == OutcomeServed }

// E2EMs is the end-to-end latency (wait + execution).
func (r *Record) E2EMs() float64 { return r.DoneMs - r.ArriveMs }

// WaitMs is the portion of E2E spent not executing: E2E minus the isolated
// execution time (any splitting/contention overhead counts as waiting from
// the QoS perspective, since the target is based on t_ext).
func (r *Record) WaitMs() float64 { return r.E2EMs() - r.ExtMs }

// ResponseRatio is RR = t_ete / t_ext (Eq. 3).
func (r *Record) ResponseRatio() float64 { return r.E2EMs() / r.ExtMs }

// System is a scheduling system under test: it replays an arrival trace
// against the catalog and reports one Record per request. Implementations
// must be deterministic for a fixed trace and catalog.
type System interface {
	// Name identifies the system in experiment output (e.g. "SPLIT").
	Name() string
	// Run simulates the trace to completion. tr may be nil. Run must not
	// write to its receiver, the catalog or the arrivals: callers hand one
	// trace to every system they compare, and may call Run on one value
	// from several goroutines at once, each with its own tracer. Everything
	// a run changes belongs to that run.
	Run(arrivals []workload.Arrival, catalog Catalog, tr *trace.Tracer) []Record
}
