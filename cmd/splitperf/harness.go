package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"split/internal/core"
	"split/internal/stats"
)

// env is what a workload is given: the seed its inputs derive from, the
// size scale (1 outside smoke runs), the measuring budget and, on the
// traced run only, the span log.
type env struct {
	seed   int64
	scale  float64
	budget time.Duration
	spans  *spanLog
	// reduced marks the warm-up pass and the passes of the traced run, for
	// which the live workloads send fewer requests.
	reduced bool
}

// runner is one set-up instance of a workload.
type runner interface {
	// pass runs the workload once, checks what it produced and returns the
	// measurements.
	pass(e *env) (passOut, error)
	// quality summarizes the requests of the latest pass.
	quality(e *env) (qos, error)
	// close tears the instance down and runs the end-of-life checks.
	close(e *env) error
}

// passOut is what one pass measured.
type passOut struct {
	cost      heapCost
	attempted int
	served    int
	// failed counts operations that ended in an error or without a reply;
	// a request the scheduler shed on purpose is not one.
	failed int
	// digest fingerprints the simulator's records; 0 on the live path,
	// whose timings are not reproducible.
	digest uint64
	// lateMs holds how late the open-loop sender was for each request.
	lateMs []float64
}

// workloadDef is one named workload of the benchmark.
type workloadDef struct {
	name string
	kind string // "batch", "closed loop" or "open loop"
	why  string
	// exactQoS marks simulated-time quality: identical on every pass, so
	// it is computed once. On the live path it is the median over passes.
	exactQoS bool
	setup    func(e *env) (runner, error)
}

// A run sets the workload up at least minSetups times, and goes on to
// maxSetups while the set-ups so far took less than a tenth of the
// measuring budget together: setup_s is the median, and a set-up of two
// milliseconds needs more repeats than one of a hundred before its median
// holds still. Only the first set-up touches fresh memory; with enough
// repeats the median is a warm one.
const (
	minSetups     = 3
	maxSetups     = 31
	setupBoxShare = 10
)

// metricValue is one reported number. N is the sample count behind a
// percentile or a median, 0 for a single measurement.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is everything one run of one workload reports.
type result struct {
	Workload string  `json:"workload"`
	Kind     string  `json:"kind"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Scale    float64 `json:"scale"`
	Traced   bool    `json:"traced"`
	Stamp    stamp   `json:"stamp"`
	Passes   int     `json:"passes"`
	// PassHostS is every timed pass's host seconds, in order: a disturbed
	// pass stays visible next to the median that outvoted it.
	PassHostS []float64 `json:"pass_host_s,omitempty"`
	Digest    string    `json:"digest,omitempty"`
	Disturbed bool      `json:"disturbed"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	// Metrics holds the declared metrics: every end-to-end metric on the
	// untraced run, every per-layer metric on the traced run.
	Metrics map[string]metricValue `json:"metrics"`
	// Detail holds undeclared context a reader wants next to the metrics.
	Detail map[string]metricValue `json:"detail,omitempty"`
	// SelfMs is each harness span name's summed self time (traced run).
	SelfMs    map[string]float64 `json:"self_ms,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
}

// disturbedLateMs is the generator lateness beyond which a pass is marked
// disturbed: the host stalled the sender, so the tail it reports is partly
// the host's.
const disturbedLateMs = 5

// setUp builds the workload up to limit times and returns the last
// instance with every set-up's duration in seconds.
func setUp(def workloadDef, e *env, limit int) (runner, []float64, error) {
	var r runner
	var took []float64
	began := time.Now()
	for i := 0; i < limit && (i < minSetups || time.Since(began) < e.budget/setupBoxShare); i++ {
		if r != nil {
			if err := r.close(e); err != nil {
				return nil, nil, fmt.Errorf("close after set-up %d: %w", i, err)
			}
		}
		runtime.GC()
		start := time.Now()
		var err error
		e.spans.in("setup", func() { r, err = def.setup(e) })
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		took = append(took, time.Since(start).Seconds())
	}
	return r, took, nil
}

// runUntraced is the run end-to-end metrics come from: set-up several
// times, one warm-up pass, then timed passes until the budget is spent.
func runUntraced(def workloadDef, e *env) (res *result, err error) {
	r, setups, err := setUp(def, e, maxSetups)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := r.close(e); cerr != nil && err == nil {
			res, err = nil, fmt.Errorf("close: %w", cerr)
		}
	}()

	warm := *e
	warm.reduced = true
	first, err := r.pass(&warm)
	if err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}

	var (
		passes   []passOut
		quals    []qos
		late     []float64
		began    = time.Now()
		lastPass time.Duration
	)
	for len(passes) == 0 || time.Since(began)+lastPass <= e.budget {
		t := time.Now()
		p, err := r.pass(e)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", len(passes), err)
		}
		if def.exactQoS && p.digest != first.digest {
			return nil, fmt.Errorf("pass %d: digest %016x differs from the warm-up's %016x: the simulator is not deterministic",
				len(passes), p.digest, first.digest)
		}
		passes = append(passes, p)
		late = append(late, p.lateMs...)
		if !def.exactQoS || len(quals) == 0 {
			q, err := r.quality(e)
			if err != nil {
				return nil, fmt.Errorf("pass %d: %w", len(passes), err)
			}
			quals = append(quals, q)
		}
		lastPass = time.Since(t)
	}

	res = newResult(def, e, false)
	res.Passes = len(passes)
	res.PassHostS = hostSeconds(passes)
	if def.exactQoS {
		res.Digest = fmt.Sprintf("%016x", first.digest)
	}
	var rate, allocs, bytes []float64
	for _, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
		rate = append(rate, float64(p.work(def))/p.cost.hostS)
		allocs = append(allocs, float64(p.cost.mallocs)/float64(p.attempted))
		bytes = append(bytes, float64(p.cost.bytes)/float64(p.attempted))
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	n := len(passes)
	q := medianQoS(quals)
	values := map[string]metricValue{
		"setup_s":         {Value: median(setups), N: len(setups)},
		"req_per_s":       {Value: median(rate), N: n},
		"allocs_per_req":  {Value: median(allocs), N: n},
		"bytes_per_req":   {Value: median(bytes), N: n},
		"peak_rss_mb":     {Value: rss},
		"rr_p50":          {Value: q.rrP50, N: q.n},
		"rr_p99":          {Value: q.rrP99, N: q.n},
		"ok_at_4":         {Value: q.okFrac, N: q.n},
		"served_frac":     {Value: q.servedFrac, N: q.n},
		"jitter_short_ms": {Value: q.jitterShortMs, N: q.n},
	}
	// The declarations decide what is reported, and under which unit.
	res.Metrics = make(map[string]metricValue, len(endToEndMetrics))
	for _, m := range endToEndMetrics {
		v, ok := values[m.name]
		if !ok {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.name)
		}
		v.Unit = m.unit
		res.Metrics[m.name] = v
	}
	res.Detail = map[string]metricValue{
		"lat_p50_ms":        {Value: q.latP50Ms, Unit: "ms", N: q.n},
		"lat_p99_ms":        {Value: q.latP99Ms, Unit: "ms", N: q.n},
		"viol_at_4":         {Value: 1 - q.okFrac, Unit: "frac"},
		"fail_frac":         {Value: 1 - q.servedFrac, Unit: "frac"},
		"tail_beyond_p99":   {Value: float64(beyond(q.n, 99)), Unit: "count"},
		"highest_tail_pct":  {Value: tailPercentile(q.n), Unit: "%"},
		"pass_host_s":       {Value: median(res.PassHostS), Unit: "s", N: n},
		"requests_per_pass": {Value: float64(passes[0].attempted), Unit: "count"},
	}
	if len(late) > 0 {
		s := sortedCopy(late)
		p99 := percentile(s, 99)
		res.Detail["loadgen.late_p50_ms"] = metricValue{Value: percentile(s, 50), Unit: "ms", N: len(s)}
		res.Detail["loadgen.late_p99_ms"] = metricValue{Value: p99, Unit: "ms", N: len(s)}
		res.Disturbed = p99 > disturbedLateMs
	}
	return res, checkFinite(res)
}

func hostSeconds(passes []passOut) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = p.cost.hostS
	}
	return out
}

// medianQoS takes each quality number's median over the passes.
func medianQoS(qs []qos) qos { return foldQoS(qs, median) }

// meanQoS takes each quality number's mean over the runs of a grid.
func meanQoS(qs []qos) qos { return foldQoS(qs, stats.Mean) }

// foldQoS reduces every field of qs with one function; n becomes the mean
// sample count.
func foldQoS(qs []qos, reduce func([]float64) float64) qos {
	if len(qs) == 0 {
		return qos{}
	}
	pick := func(f func(qos) float64) float64 {
		xs := make([]float64, len(qs))
		for i, q := range qs {
			xs[i] = f(q)
		}
		return reduce(xs)
	}
	out := qos{
		latP50Ms:      pick(func(q qos) float64 { return q.latP50Ms }),
		latP99Ms:      pick(func(q qos) float64 { return q.latP99Ms }),
		rrP50:         pick(func(q qos) float64 { return q.rrP50 }),
		rrP99:         pick(func(q qos) float64 { return q.rrP99 }),
		okFrac:        pick(func(q qos) float64 { return q.okFrac }),
		servedFrac:    pick(func(q qos) float64 { return q.servedFrac }),
		jitterShortMs: pick(func(q qos) float64 { return q.jitterShortMs }),
	}
	for _, q := range qs {
		out.n += q.n
	}
	out.n /= len(qs)
	return out
}

func newResult(def workloadDef, e *env, traced bool) *result {
	return &result{
		Workload: def.name, Kind: def.kind, Seed: e.seed, Seconds: e.budget.Seconds(),
		Scale: e.scale, Traced: traced, Stamp: hostStamp(), Correct: true,
	}
}

// checkFinite rejects a result carrying a number no reader can use.
func checkFinite(res *result) error {
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return nil
}

// runTraced is the run per-layer metrics come from. It sets the workload
// up once, warms it up, and runs it without and then with the harness's
// spans, which gives the cost of tracing; then it climbs the ladder.
// Everything is recorded as spans and written out as one Chrome trace file
// at the end.
func runTraced(def workloadDef, e *env, outDir string) (res *result, err error) {
	e.spans = newSpanLog()
	e.reduced = true
	var r runner
	var plain, traced passOut
	e.spans.in(def.name, func() {
		if r, _, err = setUp(def, e, 1); err != nil {
			return
		}
		defer func() {
			if cerr := r.close(e); cerr != nil && err == nil {
				err = fmt.Errorf("close: %w", cerr)
			}
		}()
		untraced := *e
		untraced.spans = nil
		if _, err = r.pass(&untraced); err != nil {
			err = fmt.Errorf("warm-up pass: %w", err)
			return
		}
		if plain, err = r.pass(&untraced); err != nil {
			err = fmt.Errorf("untraced pass: %w", err)
			return
		}
		if traced, err = r.pass(e); err != nil {
			err = fmt.Errorf("traced pass: %w", err)
			return
		}
		if def.exactQoS && traced.digest != plain.digest {
			err = fmt.Errorf("traced pass digest %016x differs from the untraced pass's %016x", traced.digest, plain.digest)
			return
		}
		_, err = r.quality(e)
	})
	if err != nil {
		return nil, err
	}
	dep, err := core.DefaultPipeline().Deploy()
	if err != nil {
		return nil, fmt.Errorf("deploy for the ladder: %w", err)
	}
	perReq := func(p passOut) float64 { return p.cost.hostS / float64(p.attempted) }
	l := newLadder(e, dep)
	e.spans.in("ladder", l.climb)
	l.set("harness.trace_overhead_frac", perReq(traced)/perReq(plain)-1)
	l.set("proc.gc_pause_total_ms", float64(traced.cost.gcPause)/float64(time.Millisecond))
	l.set("proc.gc_cycles", float64(traced.cost.gcRuns))
	for _, lm := range perLayer {
		if _, ok := l.out[lm.name]; !ok {
			l.fail(fmt.Errorf("per-layer metric %s was not measured", lm.name))
		}
	}
	if l.err != nil {
		return nil, l.err
	}

	res = newResult(def, e, true)
	res.Passes = 1
	res.Attempted, res.Failed = traced.attempted, traced.failed
	if def.exactQoS {
		res.Digest = fmt.Sprintf("%016x", traced.digest)
	}
	res.Metrics = l.out
	res.SelfMs = make(map[string]float64)
	for name, d := range e.spans.selfTimes() {
		res.SelfMs[name] = float64(d) / float64(time.Millisecond)
	}
	if res.TraceFile, err = e.spans.write(outDir, def.name); err != nil {
		return nil, err
	}
	return res, checkFinite(res)
}

// work is the numerator of req_per_s: requests simulated for a batch
// workload (a shed request was still simulated), requests completed OK on
// the live path.
func (p passOut) work(def workloadDef) int {
	if def.kind == "batch" {
		return p.attempted
	}
	return p.served
}
