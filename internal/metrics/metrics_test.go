package metrics

import (
	"math"
	"slices"
	"testing"

	"split/internal/model"
	"split/internal/policy"
	"split/internal/stats"
)

func rec(id int, m string, class model.RequestClass, arrive, done, ext float64) policy.Record {
	return policy.Record{
		ID: id, Model: m, Class: class,
		ArriveMs: arrive, StartMs: arrive, DoneMs: done, ExtMs: ext,
	}
}

func sample() []policy.Record {
	return []policy.Record{
		rec(0, "yolo", model.Short, 0, 10, 10), // rr 1
		rec(1, "yolo", model.Short, 0, 30, 10), // rr 3
		rec(2, "yolo", model.Short, 0, 60, 10), // rr 6
		rec(3, "vgg", model.Long, 0, 70, 70),   // rr 1
		rec(4, "vgg", model.Long, 0, 350, 70),  // rr 5
	}
}

func TestViolationRate(t *testing.T) {
	recs := sample()
	cases := []struct {
		alpha float64
		want  float64
	}{
		{0.5, 1.0},
		{2, 3.0 / 5},
		{4, 2.0 / 5},
		{6, 0},
		{20, 0},
	}
	for _, c := range cases {
		if got := ViolationRate(recs, c.alpha); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("ViolationRate(α=%v) = %v, want %v", c.alpha, got, c.want)
		}
	}
	if got := ViolationRate(nil, 4); got != 0 {
		t.Errorf("empty violation rate = %v", got)
	}
}

func TestViolationCurveMonotoneNonIncreasing(t *testing.T) {
	recs := sample()
	alphas := DefaultAlphas()
	curve := ViolationCurve(recs, alphas)
	if len(curve) != len(alphas) {
		t.Fatalf("curve length %d", len(curve))
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] > curve[i-1] {
			t.Fatalf("violation curve increased at α=%v", alphas[i])
		}
	}
}

func TestDefaultAlphas(t *testing.T) {
	a := DefaultAlphas()
	if len(a) != 19 || a[0] != 2 || a[18] != 20 {
		t.Errorf("alphas = %v", a)
	}
}

func TestResponseRatios(t *testing.T) {
	rrs := ResponseRatios(sample())
	want := []float64{1, 3, 6, 1, 5}
	for i := range want {
		if math.Abs(rrs[i]-want[i]) > 1e-12 {
			t.Errorf("rr[%d] = %v, want %v", i, rrs[i], want[i])
		}
	}
}

func TestJitterByModel(t *testing.T) {
	j := JitterByModel(sample())
	// yolo e2e: 10, 30, 60 → mean 100/3, std sqrt( (…)/3 )
	mean := 100.0 / 3
	v := ((10-mean)*(10-mean) + (30-mean)*(30-mean) + (60-mean)*(60-mean)) / 3
	if math.Abs(j["yolo"]-math.Sqrt(v)) > 1e-9 {
		t.Errorf("yolo jitter = %v", j["yolo"])
	}
	// vgg e2e: 70, 350 → std 140.
	if math.Abs(j["vgg"]-140) > 1e-9 {
		t.Errorf("vgg jitter = %v", j["vgg"])
	}
}

func TestJitterByClass(t *testing.T) {
	j := JitterByClass(sample())
	if j[model.Short] <= 0 || j[model.Long] <= 0 {
		t.Errorf("class jitter = %v", j)
	}
	if math.Abs(j[model.Long]-140) > 1e-9 {
		t.Errorf("long jitter = %v", j[model.Long])
	}
}

func TestMeanWaitAndRR(t *testing.T) {
	recs := sample()
	// waits: 0, 20, 50, 0, 280 → mean 70.
	if got := MeanWait(recs); math.Abs(got-70) > 1e-9 {
		t.Errorf("mean wait = %v", got)
	}
	if got := MeanResponseRatio(recs); math.Abs(got-16.0/5) > 1e-9 {
		t.Errorf("mean rr = %v", got)
	}
	if MeanWait(nil) != 0 {
		t.Error("empty mean wait")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize("TEST", sample())
	if s.System != "TEST" || s.Requests != 5 {
		t.Errorf("summary header: %+v", s)
	}
	if math.Abs(s.MeanRR-3.2) > 1e-9 {
		t.Errorf("meanRR = %v", s.MeanRR)
	}
	if math.Abs(s.ViolationAt4-0.4) > 1e-12 {
		t.Errorf("viol@4 = %v", s.ViolationAt4)
	}
	if s.P95RR < 5 {
		t.Errorf("p95 = %v", s.P95RR)
	}
	if s.String() == "" {
		t.Error("empty render")
	}
	empty := Summarize("E", nil)
	if empty.Requests != 0 || empty.P95RR != 0 {
		t.Errorf("empty summary: %+v", empty)
	}
}

// exactRecords are served requests of both classes, a shed of every reason
// and preemptions, with times whose sums round in float64 — so a sum taken
// in another order shows in the last bit — and two ratios exactly on α = 4
// and α = 8, which do not violate.
func exactRecords() []policy.Record {
	reasons := []string{policy.OutcomeDeadline, policy.OutcomeCanceled, policy.OutcomeAdmission, policy.OutcomeDeviceFault}
	var recs []policy.Record
	for i := 0; i < 40; i++ {
		class, ext := model.Short, 10.7
		if i%3 == 0 {
			class, ext = model.Long, 67.3
		}
		arrive := 1.3 * float64(i)
		r := policy.Record{ID: i, Model: class.String(), Class: class, ArriveMs: arrive, StartMs: arrive + 0.1,
			DoneMs: arrive + ext*(1+0.37*float64(i%11)+0.013*float64(i)), ExtMs: ext, Preemptions: i % 4}
		if i%7 == 5 {
			r.Outcome = reasons[(i/7)%len(reasons)]
		}
		recs = append(recs, r)
	}
	return append(recs,
		policy.Record{ID: 40, Model: "on4", Class: model.Short, DoneMs: 40, ExtMs: 10},
		policy.Record{ID: 41, Model: "on8", Class: model.Long, DoneMs: 80, ExtMs: 10})
}

// TestSummarizeMatchesDefinitions: Summarize folds the definitions into one
// walk, and every field must equal its definition bit for bit — on a mixed
// slice, on a slice where every request was shed, and on none.
func TestSummarizeMatchesDefinitions(t *testing.T) {
	mixed := exactRecords()
	shed := exactRecords()
	for i := range shed {
		shed[i].Outcome = []string{policy.OutcomeDeadline, policy.OutcomeCanceled, policy.OutcomeDeviceFault}[i%3]
	}
	for _, c := range []struct {
		name string
		recs []policy.Record
	}{{"mixed", mixed}, {"all shed", shed}, {"empty", nil}} {
		recs := c.recs
		var served []policy.Record
		for _, r := range recs {
			if r.Served() {
				served = append(served, r)
			}
		}
		rrs, jc := ResponseRatios(recs), JitterByClass(recs)
		want := Summary{
			System:        "S",
			Requests:      len(recs),
			Dropped:       len(recs) - len(served),
			MeanRR:        stats.Mean(rrs),
			ViolationAt4:  ViolationRate(recs, 4),
			ViolationAt8:  ViolationRate(recs, 8),
			JitterShortMs: jc[model.Short],
			JitterLongMs:  jc[model.Long],
		}
		if len(served) > 0 {
			var wait float64
			for _, r := range served {
				wait += r.WaitMs()
			}
			want.MeanWaitMs = wait / float64(len(served))
		}
		if len(rrs) > 0 {
			want.P95RR = stats.Percentile(rrs, 95)
		}
		for _, r := range recs {
			want.TotalPreemption += r.Preemptions
		}
		if got := Summarize("S", recs); got != want {
			t.Errorf("%s: Summarize\n got %#v\nwant %#v", c.name, got, want)
		}
		if got := MeanWait(recs); got != want.MeanWaitMs {
			t.Errorf("%s: MeanWait %v, want %v", c.name, got, want.MeanWaitMs)
		}
		// Jitter is stats.StdDev over each group's served e2e, in record order.
		byModel, byClass := map[string][]float64{}, map[model.RequestClass][]float64{}
		for _, r := range served {
			byModel[r.Model] = append(byModel[r.Model], r.E2EMs())
			byClass[r.Class] = append(byClass[r.Class], r.E2EMs())
		}
		jm := JitterByModel(recs)
		if len(jm) != len(byModel) || len(jc) != len(byClass) {
			t.Errorf("%s: jitter over %d models and %d classes, want %d and %d", c.name, len(jm), len(jc), len(byModel), len(byClass))
		}
		for m, xs := range byModel {
			if got, want := jm[m], stats.StdDev(xs); got != want {
				t.Errorf("%s: JitterByModel[%s] %v, want %v", c.name, m, got, want)
			}
		}
		for class, xs := range byClass {
			if got, want := jc[class], stats.StdDev(xs); got != want {
				t.Errorf("%s: JitterByClass[%s] %v, want %v", c.name, class, got, want)
			}
		}
		// The curve is ViolationRate at each α, in any order, repeated,
		// NaN or infinite.
		for _, alphas := range [][]float64{DefaultAlphas(), {8, 2.5, 4, 4, 1}, {3, math.NaN(), 1.5}, {math.Inf(1), math.Inf(-1)}, nil} {
			curve := ViolationCurve(recs, alphas)
			if len(curve) != len(alphas) {
				t.Fatalf("%s: %d curve points for %d alphas", c.name, len(curve), len(alphas))
			}
			for i, v := range curve {
				if want := ViolationRate(recs, alphas[i]); v != want {
					t.Errorf("%s: curve at α=%v is %v, ViolationRate %v", c.name, alphas[i], v, want)
				}
			}
		}
	}
	// The mixed slice covers what it claims to.
	s := Summarize("S", mixed)
	if s.JitterShortMs == 0 || s.JitterLongMs == 0 || s.TotalPreemption == 0 || s.ViolationAt4 == s.ViolationAt8 {
		t.Errorf("mixed slice is degenerate: %+v", s)
	}
	for _, reason := range []string{policy.OutcomeDeadline, policy.OutcomeCanceled, policy.OutcomeAdmission, policy.OutcomeDeviceFault} {
		if !slices.ContainsFunc(mixed, func(r policy.Record) bool { return r.Outcome == reason }) {
			t.Errorf("mixed slice sheds no request for %s", reason)
		}
	}
}

func TestBacklogSeries(t *testing.T) {
	recs := []policy.Record{
		rec(0, "a", model.Short, 0, 25, 10),
		rec(1, "a", model.Short, 5, 35, 10),
		rec(2, "a", model.Short, 30, 45, 10),
	}
	// Sampled to one step past the last completion.
	s := BacklogSeriesUntil(recs, 10, 55)
	// t=0: req0 arrived (req1 at 5 also inside first bucket) → 2 by bucket 0.
	if len(s) < 5 {
		t.Fatalf("series too short: %v", s)
	}
	if s[0] != 2 {
		t.Errorf("s[0] = %d, want 2", s[0])
	}
	// Bucket 3 (t=30..40): req0 done at 25, req1 done 35 (still counted at 30),
	// req2 arrived at 30: backlog 2.
	if s[3] != 2 {
		t.Errorf("s[3] = %d (%v)", s[3], s)
	}
	// Final bucket (one step past the last completion): everything done.
	if s[len(s)-1] != 0 {
		t.Errorf("final backlog %d", s[len(s)-1])
	}
	// Horizon-limited sampling stops while work is still queued.
	u := BacklogSeriesUntil(recs, 10, 30)
	if u[len(u)-1] == 0 {
		t.Errorf("horizon-limited series drained: %v", u)
	}
	if BacklogSeriesUntil(nil, 10, 55) != nil {
		t.Error("empty records produced a series")
	}
	if BacklogSeriesUntil(recs, 0, 55) != nil {
		t.Error("zero step produced a series")
	}
}

func TestBacklogTrend(t *testing.T) {
	growing := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if got := BacklogTrend(growing); got < 0.9 || got > 1.1 {
		t.Errorf("growing trend = %v", got)
	}
	flat := []int{3, 3, 3, 3, 3, 3}
	if got := BacklogTrend(flat); got != 0 {
		t.Errorf("flat trend = %v", got)
	}
	if got := BacklogTrend([]int{1}); got != 0 {
		t.Errorf("degenerate trend = %v", got)
	}
}

// jitterByModelSlices is JitterByModel's definition: each model's served
// e2e grouped into a slice in record order, then stats.StdDev of each. The
// fold must agree with it bit for bit.
func jitterByModelSlices(recs []policy.Record) map[string]float64 {
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

// jitterModelNames outnumber JitterByModel's stack buffer.
var jitterModelNames = []string{"m0", "m1", "m2", "m3", "m4", "m5", "m6", "m7", "m8", "m9", "m10", "m11"}

// jitterRecords builds records three bytes each: the model, whether and
// why it was shed, and the e2e, whose sums round in float64 so that a sum
// taken in another order shows in the last bit.
func jitterRecords(data []byte) []policy.Record {
	reasons := []string{policy.OutcomeDeadline, policy.OutcomeCanceled, policy.OutcomeAdmission, policy.OutcomeDeviceFault}
	recs := make([]policy.Record, 0, len(data)/3)
	for i := 0; i+2 < len(data); i += 3 {
		arrive := 0.7 * float64(i)
		r := policy.Record{ID: i / 3, Model: jitterModelNames[int(data[i])%len(jitterModelNames)],
			ArriveMs: arrive, DoneMs: arrive + 10.3 + 1.37*float64(data[i+2]), ExtMs: 10.3}
		if data[i+1]%3 == 0 {
			r.Outcome = reasons[int(data[i+1]/3)%len(reasons)]
		}
		recs = append(recs, r)
	}
	return recs
}

// FuzzJitterByModel holds the fold to its definition: the same models,
// every value bit-identical. The seeds cover a model whose every request
// was shed, more models than the stack holds, one request per model, sheds
// between served requests, and a mean that rounds (dividing its sum and
// multiplying by the reciprocal disagree in the last bit).
func FuzzJitterByModel(f *testing.F) {
	f.Add([]byte{0, 1, 124, 0, 1, 206, 0, 1, 212, 0, 1, 88, 0, 1, 187})
	f.Add([]byte{0, 1, 10, 0, 2, 20, 1, 0, 30, 0, 1, 40})
	f.Add([]byte{0, 1, 5, 1, 1, 6, 2, 1, 7, 3, 1, 8, 4, 1, 9, 5, 1, 10, 6, 1, 11, 7, 1, 12, 8, 1, 13, 9, 1, 14, 10, 1, 15, 11, 1, 16, 0, 2, 99, 11, 2, 98})
	f.Add([]byte{0, 1, 10, 1, 1, 20, 2, 1, 30})
	f.Add([]byte{0, 1, 10, 0, 0, 200, 0, 3, 17, 0, 1, 255, 0, 6, 3, 0, 2, 77})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs := jitterRecords(data)
		got, want := JitterByModel(recs), jitterByModelSlices(recs)
		if len(got) != len(want) {
			t.Fatalf("%d models, want %d: %v vs %v", len(got), len(want), got, want)
		}
		for m, w := range want {
			if g, ok := got[m]; !ok || math.Float64bits(g) != math.Float64bits(w) {
				t.Errorf("model %s: %v (present %v), want %v", m, g, ok, w)
			}
		}
	})
}

// TestJitterByModelAllocs: the groups live on the stack, so the result map
// is all JitterByModel allocates.
func TestJitterByModelAllocs(t *testing.T) {
	recs := exactRecords()
	if allocs := testing.AllocsPerRun(100, func() { JitterByModel(recs) }); allocs > 2 {
		t.Errorf("JitterByModel allocates %.0f times per call, want <= 2", allocs)
	}
}
