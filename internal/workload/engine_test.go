package workload

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func twoCohortConfig() CohortSetConfig {
	return CohortSetConfig{
		Cohorts: []Cohort{
			{
				Name:    "steady",
				Models:  []string{"resnet50", "vgg16"},
				Process: Process{Kind: ProcPoisson, MeanIntervalMs: 40},
			},
			{
				Name:    "bursty",
				Models:  []string{"inception"},
				Process: Process{Kind: ProcMMPP, MeanIntervalMs: 120, BurstIntervalMs: 15, CalmDwellMs: 500, BurstDwellMs: 200},
			},
		},
		Count: 4000,
		Seed:  7,
	}
}

func TestCohortValidation(t *testing.T) {
	valid := twoCohortConfig()
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*CohortSetConfig)
	}{
		{"no cohorts", func(c *CohortSetConfig) { c.Cohorts = nil }},
		{"zero count", func(c *CohortSetConfig) { c.Count = 0 }},
		{"no models", func(c *CohortSetConfig) { c.Cohorts[0].Models = nil }},
		{"weight length", func(c *CohortSetConfig) { c.Cohorts[0].Weights = []float64{1} }},
		{"negative weight", func(c *CohortSetConfig) { c.Cohorts[0].Weights = []float64{1, -1} }},
		{"zero weights", func(c *CohortSetConfig) { c.Cohorts[0].Weights = []float64{0, 0} }},
		{"unknown kind", func(c *CohortSetConfig) { c.Cohorts[0].Process.Kind = "weibull" }},
		{"zero mean", func(c *CohortSetConfig) { c.Cohorts[0].Process.MeanIntervalMs = 0 }},
		{"lognormal sigma", func(c *CohortSetConfig) {
			c.Cohorts[0].Process = Process{Kind: ProcLogNormal, MeanIntervalMs: 40}
		}},
		{"pareto alpha", func(c *CohortSetConfig) {
			c.Cohorts[0].Process = Process{Kind: ProcPareto, MeanIntervalMs: 40, Alpha: 1}
		}},
		{"mmpp burst interval", func(c *CohortSetConfig) { c.Cohorts[1].Process.BurstIntervalMs = 0 }},
		{"mmpp dwell", func(c *CohortSetConfig) { c.Cohorts[1].Process.CalmDwellMs = -1 }},
		{"envelope period", func(c *CohortSetConfig) {
			c.Cohorts[0].Envelope = &Envelope{PeriodMs: 0, Factors: []float64{1}}
		}},
		{"envelope empty", func(c *CohortSetConfig) {
			c.Cohorts[0].Envelope = &Envelope{PeriodMs: 100}
		}},
		{"envelope factor", func(c *CohortSetConfig) {
			c.Cohorts[0].Envelope = &Envelope{PeriodMs: 100, Factors: []float64{1, 0}}
		}},
		{"negative deadline", func(c *CohortSetConfig) { c.Cohorts[0].DeadlineMs = -5 }},
		{"jitter out of range", func(c *CohortSetConfig) { c.Cohorts[0].DeadlineJitterFrac = 1 }},
		{"cancel frac", func(c *CohortSetConfig) { c.Cohorts[0].CancelFrac = 1.5 }},
		{"cancel without patience", func(c *CohortSetConfig) { c.Cohorts[0].CancelFrac = 0.1 }},
	}
	for _, tc := range cases {
		cfg := twoCohortConfig()
		tc.mutate(&cfg)
		if _, err := GenerateCohorts(cfg); err == nil {
			t.Errorf("%s: config accepted", tc.name)
		}
	}
}

// TestValidateRejectsNonFinite: every float field of every generator
// config refuses NaN and both infinities. The range checks alone compare
// with < and <=, which NaN passes: a NaN mean interval would generate
// arrivals all at NaN, a NaN deadline would read as no deadline, and a
// NaN MMPP dwell would never end its state.
func TestValidateRejectsNonFinite(t *testing.T) {
	config := func(set func(*Config)) error {
		c := baseConfig()
		c.Weights = []float64{1, 1, 1}
		set(&c)
		_, err := Generate(c)
		return err
	}
	mmpp := func(set func(*MMPPConfig)) error {
		c := MMPPConfig{Models: []string{"a"}, CalmIntervalMs: 100, BurstIntervalMs: 10,
			CalmDwellMs: 500, BurstDwellMs: 100, Count: 10}
		set(&c)
		_, err := GenerateMMPP(c)
		return err
	}
	cohort := func(set func(*Cohort)) error {
		c := twoCohortConfig()
		c.Count = 10
		co := &c.Cohorts[0]
		co.Weights = []float64{1, 1}
		co.Envelope = &Envelope{PeriodMs: 1000, Factors: []float64{1, 2}}
		co.DeadlineMs, co.DeadlineJitterFrac = 100, 0.1
		co.CancelFrac, co.CancelAfterMs = 0.1, 50
		set(co)
		_, err := GenerateCohorts(c)
		return err
	}
	for name, err := range map[string]error{
		"Config":       config(func(*Config) {}),
		"MMPPConfig":   mmpp(func(*MMPPConfig) {}),
		"CohortConfig": cohort(func(*Cohort) {}),
	} {
		if err != nil {
			t.Fatalf("the finite base %s is refused: %v", name, err)
		}
	}
	rows := []struct {
		field string
		try   func(v float64) error
	}{
		{"Config.MeanIntervalMs", func(v float64) error { return config(func(c *Config) { c.MeanIntervalMs = v }) }},
		{"Config.Weights", func(v float64) error { return config(func(c *Config) { c.Weights[1] = v }) }},
		{"MMPPConfig.CalmIntervalMs", func(v float64) error { return mmpp(func(c *MMPPConfig) { c.CalmIntervalMs = v }) }},
		{"MMPPConfig.BurstIntervalMs", func(v float64) error { return mmpp(func(c *MMPPConfig) { c.BurstIntervalMs = v }) }},
		{"MMPPConfig.CalmDwellMs", func(v float64) error { return mmpp(func(c *MMPPConfig) { c.CalmDwellMs = v }) }},
		{"MMPPConfig.BurstDwellMs", func(v float64) error { return mmpp(func(c *MMPPConfig) { c.BurstDwellMs = v }) }},
		{"Process.MeanIntervalMs", func(v float64) error { return cohort(func(c *Cohort) { c.Process.MeanIntervalMs = v }) }},
		{"Process.Sigma", func(v float64) error { return cohort(func(c *Cohort) { c.Process.Sigma = v }) }},
		{"Process.Alpha", func(v float64) error { return cohort(func(c *Cohort) { c.Process.Alpha = v }) }},
		{"Process.BurstIntervalMs", func(v float64) error { return cohort(func(c *Cohort) { c.Process.BurstIntervalMs = v }) }},
		{"Process.CalmDwellMs", func(v float64) error { return cohort(func(c *Cohort) { c.Process.CalmDwellMs = v }) }},
		{"Process.BurstDwellMs", func(v float64) error { return cohort(func(c *Cohort) { c.Process.BurstDwellMs = v }) }},
		{"Envelope.PeriodMs", func(v float64) error { return cohort(func(c *Cohort) { c.Envelope.PeriodMs = v }) }},
		{"Envelope.Factors", func(v float64) error { return cohort(func(c *Cohort) { c.Envelope.Factors[1] = v }) }},
		{"Cohort.Weights", func(v float64) error { return cohort(func(c *Cohort) { c.Weights[0] = v }) }},
		{"Cohort.DeadlineMs", func(v float64) error { return cohort(func(c *Cohort) { c.DeadlineMs = v }) }},
		{"Cohort.DeadlineJitterFrac", func(v float64) error { return cohort(func(c *Cohort) { c.DeadlineJitterFrac = v }) }},
		{"Cohort.CancelFrac", func(v float64) error { return cohort(func(c *Cohort) { c.CancelFrac = v }) }},
		{"Cohort.CancelAfterMs", func(v float64) error { return cohort(func(c *Cohort) { c.CancelAfterMs = v }) }},
	}
	for _, row := range rows {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			if err := row.try(v); err == nil {
				t.Errorf("%s = %v accepted", row.field, v)
			}
		}
	}
}

func TestGenerateCohortsInvariants(t *testing.T) {
	cfg := twoCohortConfig()
	out := MustGenerateCohorts(cfg)
	if len(out) != cfg.Count {
		t.Fatalf("got %d arrivals, want %d", len(out), cfg.Count)
	}
	prev := -1.0
	perCohort := map[string]int{}
	for i, a := range out {
		if a.ID != i {
			t.Fatalf("arrival %d has ID %d; IDs must be dense", i, a.ID)
		}
		if a.AtMs < 0 || a.AtMs < prev {
			t.Fatalf("arrival %d at %v after %v; times must be non-negative and ordered", i, a.AtMs, prev)
		}
		prev = a.AtMs
		perCohort[a.Cohort]++
		switch a.Cohort {
		case "steady":
			if a.Model != "resnet50" && a.Model != "vgg16" {
				t.Fatalf("steady arrival has model %q", a.Model)
			}
		case "bursty":
			if a.Model != "inception" {
				t.Fatalf("bursty arrival has model %q", a.Model)
			}
		default:
			t.Fatalf("arrival %d has unknown cohort %q", i, a.Cohort)
		}
	}
	// Both cohorts must contribute roughly per their rates: steady at 1/40,
	// bursty's MMPP long-run rate ≈ (500/120 + 200/15)/700 ≈ 0.025/ms, so
	// steady should hold roughly half the trace — and neither side may be
	// starved.
	if perCohort["steady"] < cfg.Count/4 || perCohort["bursty"] < cfg.Count/4 {
		t.Fatalf("cohort mix collapsed: %v", perCohort)
	}
}

func TestGenerateCohortsDeterministicAndSeedSensitive(t *testing.T) {
	cfg := twoCohortConfig()
	a := MustGenerateCohorts(cfg)
	b := MustGenerateCohorts(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	cfg.Seed++
	c := MustGenerateCohorts(cfg)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical traces")
	}
}

// Adding a cohort must not perturb the existing cohorts' streams: each
// stream's RNG derives from (seed, index) alone.
func TestGenerateCohortsStreamIndependence(t *testing.T) {
	cfg := twoCohortConfig()
	base := MustGenerateCohorts(cfg)

	cfg.Cohorts = append(cfg.Cohorts, Cohort{
		Name:    "extra",
		Models:  []string{"mobilenet"},
		Process: Process{Kind: ProcPoisson, MeanIntervalMs: 25},
	})
	grown := MustGenerateCohorts(cfg)

	var baseSteady, grownSteady []float64
	for _, a := range base {
		if a.Cohort == "steady" {
			baseSteady = append(baseSteady, a.AtMs)
		}
	}
	for _, a := range grown {
		if a.Cohort == "steady" {
			grownSteady = append(grownSteady, a.AtMs)
		}
	}
	// The grown trace spends part of its Count budget on the extra cohort,
	// so compare the common prefix.
	n := len(baseSteady)
	if len(grownSteady) < n {
		n = len(grownSteady)
	}
	if n == 0 {
		t.Fatal("steady cohort vanished")
	}
	if !reflect.DeepEqual(baseSteady[:n], grownSteady[:n]) {
		t.Fatal("adding a cohort perturbed an existing cohort's arrival times")
	}
}

// The heavy-tailed processes must preserve the configured mean interval.
func TestHeavyTailMeansPreserved(t *testing.T) {
	const mean = 30.0
	cases := []struct {
		name string
		proc Process
		tol  float64
	}{
		{"lognormal", Process{Kind: ProcLogNormal, MeanIntervalMs: mean, Sigma: 1.5}, 0.10},
		// α=2.5 keeps the variance finite so the sample mean converges.
		{"pareto", Process{Kind: ProcPareto, MeanIntervalMs: mean, Alpha: 2.5}, 0.10},
	}
	for _, tc := range cases {
		out := MustGenerateCohorts(CohortSetConfig{
			Cohorts: []Cohort{{Models: []string{"m"}, Process: tc.proc}},
			Count:   60000,
			Seed:    11,
		})
		got := out[len(out)-1].AtMs / float64(len(out))
		if math.Abs(got-mean)/mean > tc.tol {
			t.Errorf("%s: measured mean interval %.2f, want %.2f ± %.0f%%", tc.name, got, mean, tc.tol*100)
		}
	}
}

// A Pareto cohort must actually be heavy-tailed. The sample variance of a
// Pareto with α ≈ 2 converges hopelessly slowly, so use the max-gap
// statistic instead: over n exponential gaps the maximum is ≈ ln(n) means
// (~11 here), while the Pareto maximum grows like n^(1/α) means (~80 here).
func TestParetoBurstier(t *testing.T) {
	const mean = 30.0
	out := MustGenerateCohorts(CohortSetConfig{
		Cohorts: []Cohort{{Models: []string{"m"}, Process: Process{Kind: ProcPareto, MeanIntervalMs: mean, Alpha: 2.2}}},
		Count:   60000,
		Seed:    3,
	})
	var maxGap, prev float64
	for _, a := range out {
		if g := a.AtMs - prev; g > maxGap {
			maxGap = g
		}
		prev = a.AtMs
	}
	if maxGap < 30*mean {
		t.Fatalf("pareto max gap %.0f ms (%.1f means); an exponential tail tops out near 11 means", maxGap, maxGap/mean)
	}
}

// A diurnal envelope factor f multiplies the local arrival rate by f.
func TestEnvelopeModulatesRate(t *testing.T) {
	const period = 10000.0
	out := MustGenerateCohorts(CohortSetConfig{
		Cohorts: []Cohort{{
			Models:   []string{"m"},
			Process:  Process{Kind: ProcPoisson, MeanIntervalMs: 20},
			Envelope: &Envelope{PeriodMs: period, Factors: []float64{1, 3}},
		}},
		Count: 80000,
		Seed:  5,
	})
	var lowN, highN int
	for _, a := range out {
		if math.Mod(a.AtMs, period) < period/2 {
			lowN++
		} else {
			highN++
		}
	}
	// Equal time is spent in each phase, so the count ratio estimates the
	// rate ratio.
	ratio := float64(highN) / float64(lowN)
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("phase count ratio %.2f, want ≈3 (factor 3 envelope)", ratio)
	}
}

func TestEnvelopeFactorAt(t *testing.T) {
	var nilEnv *Envelope
	if got := nilEnv.FactorAt(123); got != 1 {
		t.Fatalf("nil envelope factor %v, want 1", got)
	}
	e := &Envelope{PeriodMs: 100, Factors: []float64{1, 2, 4, 8}}
	cases := []struct {
		t    float64
		want float64
	}{{0, 1}, {24.9, 1}, {25, 2}, {60, 4}, {99, 8}, {100, 1}, {175, 8}}
	for _, tc := range cases {
		if got := e.FactorAt(tc.t); got != tc.want {
			t.Errorf("FactorAt(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
}

func TestCohortDeadlinesAndCancels(t *testing.T) {
	cfg := CohortSetConfig{
		Cohorts: []Cohort{{
			Name:               "impatient",
			Models:             []string{"m"},
			Process:            Process{Kind: ProcPoisson, MeanIntervalMs: 10},
			DeadlineMs:         200,
			DeadlineJitterFrac: 0.25,
			CancelFrac:         0.3,
			CancelAfterMs:      50,
		}},
		Count: 20000,
		Seed:  9,
	}
	out := MustGenerateCohorts(cfg)
	canceled := 0
	for _, a := range out {
		if a.DeadlineMs < 150 || a.DeadlineMs >= 250 {
			t.Fatalf("deadline %v outside jitter band [150, 250)", a.DeadlineMs)
		}
		if a.CancelAtMs != 0 {
			canceled++
			if a.CancelAtMs <= a.AtMs {
				t.Fatalf("cancel at %v not after arrival %v", a.CancelAtMs, a.AtMs)
			}
		}
	}
	frac := float64(canceled) / float64(len(out))
	if math.Abs(frac-0.3) > 0.02 {
		t.Fatalf("cancel fraction %.3f, want ≈0.30", frac)
	}
}

func TestCohortWeightedMix(t *testing.T) {
	cfg := CohortSetConfig{
		Cohorts: []Cohort{{
			Models:  []string{"a", "b", "c"},
			Weights: []float64{6, 3, 1},
			Process: Process{Kind: ProcPoisson, MeanIntervalMs: 10},
		}},
		Count: 30000,
		Seed:  13,
	}
	counts := map[string]int{}
	for _, a := range MustGenerateCohorts(cfg) {
		counts[a.Model]++
	}
	total := float64(cfg.Count)
	for m, want := range map[string]float64{"a": 0.6, "b": 0.3, "c": 0.1} {
		got := float64(counts[m]) / total
		if math.Abs(got-want) > 0.02 {
			t.Errorf("model %s drawn %.3f of the time, want ≈%.2f", m, got, want)
		}
	}
}

// Equal next-arrival times must merge in stream-index order — the stable
// tiebreak that makes IDs deterministic regardless of sort internals.
func TestEarliestStreamTiebreak(t *testing.T) {
	streams := make([]*stream, 6)
	for i, at := range []float64{5, 5, 5, 5, 5, 1} {
		streams[i] = &stream{nextAtMs: at}
	}
	for i, want := range []int{5, 0, 1, 2, 3, 4} {
		s := earliest(streams)
		if s != streams[want] {
			t.Fatalf("merge %d took the wrong stream, want stream %d", i, want)
		}
		s.nextAtMs = math.Inf(1)
	}
}

// The measured per-state MMPP rates must converge to the configured ones —
// the pre-fix generator bled stale calm-rate intervals into burst dwells, so
// its burst-state rate undershot 1/BurstIntervalMs.
func TestMMPPStateRatesConverge(t *testing.T) {
	st := mmppState{
		calmMs:       80,
		burstMs:      8,
		calmDwellMs:  400,
		burstDwellMs: 400,
	}
	rng := rand.New(rand.NewSource(21))
	st.start(rng)
	var tNow float64
	for i := 0; i < 400000; i++ {
		tNow = st.next(rng, tNow, 1)
	}
	calmRate := float64(st.arrivals[0]) / st.occupancyMs[0]
	burstRate := float64(st.arrivals[1]) / st.occupancyMs[1]
	if math.Abs(calmRate-1.0/80)/(1.0/80) > 0.03 {
		t.Errorf("calm rate %.5f, want ≈%.5f", calmRate, 1.0/80)
	}
	if math.Abs(burstRate-1.0/8)/(1.0/8) > 0.03 {
		t.Errorf("burst rate %.5f, want ≈%.5f", burstRate, 1.0/8)
	}
}

// StartInBurst must draw the initial dwell from the burst state: with a long
// burst dwell and a fast burst rate, the trace front is dense.
func TestMMPPStartInBurst(t *testing.T) {
	cfg := MMPPConfig{
		Models:          []string{"m"},
		CalmIntervalMs:  500,
		BurstIntervalMs: 5,
		CalmDwellMs:     10000,
		BurstDwellMs:    10000,
		StartInBurst:    true,
		Count:           50,
		Seed:            1,
	}
	var burstFirst, calmFirst int
	for seed := int64(1); seed <= 40; seed++ {
		cfg.Seed = seed
		a, err := GenerateMMPP(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// 50 burst-rate arrivals span ≈250 ms; 50 calm-rate ones ≈25000 ms.
		if a[len(a)-1].AtMs < 2500 {
			burstFirst++
		} else {
			calmFirst++
		}
	}
	if burstFirst < 35 {
		t.Fatalf("StartInBurst traces started dense only %d/40 times", burstFirst)
	}
	cfg.StartInBurst = false
	calmFirst = 0
	for seed := int64(1); seed <= 40; seed++ {
		cfg.Seed = seed
		a, err := GenerateMMPP(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a[len(a)-1].AtMs >= 2500 {
			calmFirst++
		}
	}
	if calmFirst < 35 {
		t.Fatalf("calm-start traces started sparse only %d/40 times", calmFirst)
	}
}
