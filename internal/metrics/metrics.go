// Package metrics computes the paper's QoS measures over per-request
// records: the latency violation rate as a function of the latency target α
// (Figure 6) and inference jitter, the standard deviation of per-model
// end-to-end execution time (Figure 7), plus supporting response-ratio
// statistics.
package metrics

import (
	"fmt"
	"math"

	"split/internal/model"
	"split/internal/policy"
	"split/internal/stats"
)

// DefaultAlphas returns the α sweep the paper uses: 2 through 20 (§5.2).
func DefaultAlphas() []float64 {
	alphas := make([]float64, 0, 19)
	for a := 2; a <= 20; a++ {
		alphas = append(alphas, float64(a))
	}
	return alphas
}

// ViolationRate returns the fraction of requests whose response ratio
// exceeds α (a request violates its latency target α·t_ext when
// RR = t_ete/t_ext > α). A request that was shed instead of served —
// deadline, cancellation, device fault — never met its target and counts
// as a violation at every α.
func ViolationRate(recs []policy.Record, alpha float64) float64 {
	if len(recs) == 0 {
		return 0
	}
	violated := 0
	for i := range recs {
		if r := &recs[i]; !r.Served() || r.ResponseRatio() > alpha {
			violated++
		}
	}
	return float64(violated) / float64(len(recs))
}

// Admitted filters out records rejected at the front door by admission
// control. QoS rates are computed over admitted records — a rejection is
// the gate doing its job, not a violation the fleet inflicted on an
// accepted request — while the rejected count is reported alongside.
func Admitted(recs []policy.Record) []policy.Record {
	out := make([]policy.Record, 0, len(recs))
	for i := range recs {
		if recs[i].Outcome != policy.OutcomeAdmission {
			out = append(out, recs[i])
		}
	}
	return out
}

// ViolationCurve evaluates ViolationRate at every α, producing one Figure 6
// series, in one walk over recs: each record's ratio is taken once and
// counted against every α it exceeds, and each count is divided once, as
// ViolationRate divides it.
func ViolationCurve(recs []policy.Record, alphas []float64) []float64 {
	curve := make([]float64, len(alphas))
	if len(recs) == 0 {
		return curve
	}
	counts := make([]int, len(alphas))
	for i := range recs {
		r := &recs[i]
		if !r.Served() {
			for j := range counts {
				counts[j]++
			}
			continue
		}
		rr := r.ResponseRatio()
		for j, a := range alphas {
			// Added, not branched on: which α a ratio exceeds is
			// unpredictable record to record.
			violated := 0
			if rr > a {
				violated = 1
			}
			counts[j] += violated
		}
	}
	for j, c := range counts {
		curve[j] = float64(c) / float64(len(recs))
	}
	return curve
}

// ResponseRatios extracts the response ratios of served requests (a shed
// record's DoneMs is its shed time, not a completion).
func ResponseRatios(recs []policy.Record) []float64 {
	out := make([]float64, 0, len(recs))
	for i := range recs {
		if r := &recs[i]; r.Served() {
			out = append(out, r.ResponseRatio())
		}
	}
	return out
}

// jitterGroup is one group's jitter, accumulated in two walks over the
// records: add sums e2e and counts, settle fixes the mean, deviate sums the
// squared deviations from it. Each sum runs in record order, so stdDev is
// bit-identical to stats.StdDev over the group's e2e slice.
type jitterGroup[K comparable] struct {
	key           K
	n             int
	sum, mean, sq float64
}

func (g *jitterGroup[K]) add(e2e float64) { g.n++; g.sum += e2e }

// settle's mean is NaN for an empty group, which deviate never sees.
func (g *jitterGroup[K]) settle() { g.mean = g.sum / float64(g.n) }

func (g *jitterGroup[K]) deviate(e2e float64) { d := e2e - g.mean; g.sq += d * d }

func (g *jitterGroup[K]) stdDev() float64 {
	if g.n == 0 {
		return 0
	}
	return math.Sqrt(g.sq / float64(g.n))
}

// jitterBy is the jitter of the served records grouped by key, folded in
// two walks. A run has a handful of groups, so they live in groups — the
// caller's empty stack buffer, spilled to the heap only past its capacity —
// searched linearly: comparing a few keys is cheaper than hashing one. A
// key with no served record is absent, and the only allocation is the
// result.
func jitterBy[K comparable](recs []policy.Record, groups []jitterGroup[K], key func(*policy.Record) K) map[K]float64 {
	find := func(k K) *jitterGroup[K] {
		for i := range groups {
			if groups[i].key == k {
				return &groups[i]
			}
		}
		groups = append(groups, jitterGroup[K]{key: k})
		return &groups[len(groups)-1]
	}
	for i := range recs {
		if r := &recs[i]; r.Served() {
			find(key(r)).add(r.E2EMs())
		}
	}
	for i := range groups {
		groups[i].settle()
	}
	for i := range recs {
		if r := &recs[i]; r.Served() {
			find(key(r)).deviate(r.E2EMs())
		}
	}
	out := make(map[K]float64, len(groups))
	for i := range groups {
		out[groups[i].key] = groups[i].stdDev()
	}
	return out
}

// JitterByModel returns the Figure 7 metric: the standard deviation of
// end-to-end execution time for each model's served requests.
func JitterByModel(recs []policy.Record) map[string]float64 {
	var buf [8]jitterGroup[string]
	return jitterBy(recs, buf[:0], func(r *policy.Record) string { return r.Model })
}

// JitterByClass aggregates jitter across all served short and long requests.
func JitterByClass(recs []policy.Record) map[model.RequestClass]float64 {
	var buf [2]jitterGroup[model.RequestClass]
	return jitterBy(recs, buf[:0], func(r *policy.Record) model.RequestClass { return r.Class })
}

// MeanResponseRatio returns the average RR over served requests.
func MeanResponseRatio(recs []policy.Record) float64 {
	return stats.Mean(ResponseRatios(recs))
}

// MeanWait returns the average waiting latency (E2E − t_ext) of served
// requests.
func MeanWait(recs []policy.Record) float64 {
	var s float64
	n := 0
	for i := range recs {
		if r := &recs[i]; r.Served() {
			s += r.WaitMs()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// Summary is a compact per-run QoS digest used by the experiment harness.
type Summary struct {
	System   string
	Requests int
	// Dropped counts requests shed rather than served (deadline,
	// cancellation, device fault).
	Dropped         int
	MeanRR          float64
	P95RR           float64
	MeanWaitMs      float64
	ViolationAt4    float64
	ViolationAt8    float64
	JitterShortMs   float64
	JitterLongMs    float64
	TotalPreemption int
}

// Summarize digests one system's records. It is the definitions above —
// ViolationRate at 4 and 8, MeanWait, JitterByClass, the mean and 95th
// percentile of ResponseRatios — folded into two walks that copy no record:
// the first counts the served requests and sums each class's e2e, the
// second fills the ratios and sums the rest. Every sum still runs in record
// order, so each field is bit-identical to its definition.
func Summarize(system string, recs []policy.Record) Summary {
	served := 0
	var short, long jitterGroup[model.RequestClass]
	for i := range recs {
		if r := &recs[i]; r.Served() {
			served++
			switch r.Class {
			case model.Short:
				short.add(r.E2EMs())
			case model.Long:
				long.add(r.E2EMs())
			}
		}
	}
	short.settle()
	long.settle()
	rrs := make([]float64, 0, served)
	s := Summary{System: system, Requests: len(recs), Dropped: len(recs) - served}
	var wait float64
	v4, v8 := 0, 0
	for i := range recs {
		r := &recs[i]
		s.TotalPreemption += r.Preemptions
		if !r.Served() {
			v4++
			v8++
			continue
		}
		rr := r.ResponseRatio()
		rrs = append(rrs, rr)
		wait += r.WaitMs()
		if rr > 4 {
			v4++
		}
		if rr > 8 {
			v8++
		}
		switch r.Class {
		case model.Short:
			short.deviate(r.E2EMs())
		case model.Long:
			long.deviate(r.E2EMs())
		}
	}
	if len(recs) > 0 {
		s.ViolationAt4 = float64(v4) / float64(len(recs))
		s.ViolationAt8 = float64(v8) / float64(len(recs))
	}
	if served > 0 {
		s.MeanWaitMs = wait / float64(served)
		s.MeanRR = stats.Mean(rrs)
		s.P95RR = stats.PercentileInPlace(rrs, 95) // last reader of rrs: reorder it, no copy
	}
	s.JitterShortMs = short.stdDev()
	s.JitterLongMs = long.stdDev()
	return s
}

// String renders the summary as a fixed-width table row.
func (s Summary) String() string {
	return fmt.Sprintf("%-16s n=%-5d meanRR=%-6.2f p95RR=%-7.2f wait=%-8.2f viol@4=%-6.1f%% viol@8=%-6.1f%% jitterS=%-8.2f jitterL=%-8.2f preempt=%d",
		s.System, s.Requests, s.MeanRR, s.P95RR, s.MeanWaitMs,
		s.ViolationAt4*100, s.ViolationAt8*100, s.JitterShortMs, s.JitterLongMs, s.TotalPreemption)
}

// BacklogSeriesUntil reconstructs the queue backlog over time from
// completed records: at each sample instant from t=0 to horizonMs in steps
// of stepMs, the number of requests that have arrived but not completed. A
// growing series is the §5.1 footnote's "requests in the growing queue"
// regime. Use the last *arrival* time as the horizon to measure queue
// growth while load is applied — a finite trace always drains eventually,
// so sampling past the arrivals hides instability.
func BacklogSeriesUntil(recs []policy.Record, stepMs, horizonMs float64) []int {
	if len(recs) == 0 || stepMs <= 0 || horizonMs <= 0 {
		return nil
	}
	n := int(horizonMs/stepMs) + 1
	delta := make([]int, n+1)
	for i := range recs {
		ai := int(recs[i].ArriveMs / stepMs)
		di := int(recs[i].DoneMs / stepMs)
		if ai < len(delta) {
			delta[ai]++
		}
		if di+1 < len(delta) {
			delta[di+1]--
		}
	}
	series := make([]int, n)
	acc := 0
	for i := 0; i < n; i++ {
		acc += delta[i]
		series[i] = acc
	}
	return series
}

// BacklogTrend fits a least-squares slope (requests per sample step) to the
// second half of a backlog series — positive slopes indicate an unstable,
// growing queue.
func BacklogTrend(series []int) float64 {
	half := series[len(series)/2:]
	n := float64(len(half))
	if n < 2 {
		return 0
	}
	var sx, sy, sxy, sxx float64
	for i, v := range half {
		x, y := float64(i), float64(v)
		sx += x
		sy += y
		sxy += x * y
		sxx += x * x
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / denom
}
