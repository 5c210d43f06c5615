// Package metrics computes the paper's QoS measures over per-request
// records: the latency violation rate as a function of the latency target α
// (Figure 6) and inference jitter, the standard deviation of per-model
// end-to-end execution time (Figure 7), plus supporting response-ratio
// statistics.
package metrics

import (
	"fmt"
	"math"
	"sort"

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

// Served filters to the records that completed normally; latency-derived
// metrics are only meaningful over these.
func Served(recs []policy.Record) []policy.Record {
	out := make([]policy.Record, 0, len(recs))
	for i := range recs {
		if recs[i].Served() {
			out = append(out, recs[i])
		}
	}
	return out
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

// DropRate returns the fraction of records that were shed rather than
// served.
func DropRate(recs []policy.Record) float64 {
	if len(recs) == 0 {
		return 0
	}
	shed := 0
	for i := range recs {
		if !recs[i].Served() {
			shed++
		}
	}
	return float64(shed) / float64(len(recs))
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
type jitterGroup struct {
	class         model.RequestClass
	n             int
	sum, mean, sq float64
}

func (g *jitterGroup) add(e2e float64) { g.n++; g.sum += e2e }

// settle's mean is NaN for an empty group, which deviate never sees.
func (g *jitterGroup) settle() { g.mean = g.sum / float64(g.n) }

func (g *jitterGroup) deviate(e2e float64) { d := e2e - g.mean; g.sq += d * d }

func (g *jitterGroup) stdDev() float64 {
	if g.n == 0 {
		return 0
	}
	return math.Sqrt(g.sq / float64(g.n))
}

// JitterByModel returns the Figure 7 metric: the standard deviation of
// end-to-end execution time for each model's served requests.
func JitterByModel(recs []policy.Record) map[string]float64 {
	by := make(map[string][]float64)
	for i := range recs {
		if r := &recs[i]; r.Served() {
			by[r.Model] = append(by[r.Model], r.E2EMs())
		}
	}
	out := make(map[string]float64)
	for name, xs := range by {
		out[name] = stats.StdDev(xs)
	}
	return out
}

// JitterByClass aggregates jitter across all served short and long requests.
// There are a handful of classes, so it keeps their accumulators in a slice
// searched linearly, on the stack.
func JitterByClass(recs []policy.Record) map[model.RequestClass]float64 {
	var buf [2]jitterGroup
	groups := buf[:0]
	find := func(c model.RequestClass) *jitterGroup {
		for i := range groups {
			if groups[i].class == c {
				return &groups[i]
			}
		}
		groups = append(groups, jitterGroup{class: c})
		return &groups[len(groups)-1]
	}
	for i := range recs {
		if r := &recs[i]; r.Served() {
			find(r.Class).add(r.E2EMs())
		}
	}
	for i := range groups {
		groups[i].settle()
	}
	for i := range recs {
		if r := &recs[i]; r.Served() {
			find(r.Class).deviate(r.E2EMs())
		}
	}
	out := make(map[model.RequestClass]float64, len(groups))
	for i := range groups {
		out[groups[i].class] = groups[i].stdDev()
	}
	return out
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

// ByClass partitions records into short and long requests.
func ByClass(recs []policy.Record) map[model.RequestClass][]policy.Record {
	out := make(map[model.RequestClass][]policy.Record)
	for i := range recs {
		out[recs[i].Class] = append(out[recs[i].Class], recs[i])
	}
	return out
}

// ByModel partitions records by model name.
func ByModel(recs []policy.Record) map[string][]policy.Record {
	out := make(map[string][]policy.Record)
	for i := range recs {
		out[recs[i].Model] = append(out[recs[i].Model], recs[i])
	}
	return out
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
	var short, long jitterGroup
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
		s.P95RR = stats.Percentile(rrs, 95)
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

// BacklogSeries reconstructs the queue backlog over time from completed
// records: at each sample instant, the number of requests that have arrived
// but not completed. Sampling runs from t=0 to the last completion in steps
// of stepMs. A growing series is the §5.1 footnote's "requests in the
// growing queue" regime.
func BacklogSeries(recs []policy.Record, stepMs float64) []int {
	var end float64
	for i := range recs {
		if recs[i].DoneMs > end {
			end = recs[i].DoneMs
		}
	}
	return BacklogSeriesUntil(recs, stepMs, end+stepMs)
}

// BacklogSeriesUntil is BacklogSeries sampled only up to horizonMs. Use the
// last *arrival* time as the horizon to measure queue growth while load is
// applied — a finite trace always drains eventually, so sampling past the
// arrivals hides instability.
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

// ModelNames returns the sorted model names present in recs.
func ModelNames(recs []policy.Record) []string {
	set := map[string]bool{}
	for i := range recs {
		set[recs[i].Model] = true
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
