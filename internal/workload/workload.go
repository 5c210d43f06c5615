// Package workload generates the request streams of the paper's evaluation
// (§5.1): Poisson arrivals over the five benchmark models, with the six
// load scenarios of Table 2 (mean inter-arrival λ from 160 ms down to
// 110 ms) and 1000 requests per run. All generation is seeded and
// reproducible.
package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Typed configuration errors, so callers can distinguish rejection causes
// with errors.Is.
var (
	// ErrNegativeWeight rejects mixes containing a negative model weight.
	ErrNegativeWeight = errors.New("workload: negative model weight")
	// ErrZeroWeights rejects mixes whose weights sum to zero — such a mix
	// would silently degenerate to always picking the first model.
	ErrZeroWeights = errors.New("workload: model weights sum to zero")
)

// Arrival is one request arrival: which model, when. The JSON tags define
// the versioned trace record format (see WriteTrace).
type Arrival struct {
	ID    int     `json:"id"`
	Model string  `json:"model"`
	AtMs  float64 `json:"at_ms"`
	// DeadlineMs, when > 0, is a client-supplied relative deadline: the
	// request must finish within this many ms of AtMs or be shed. 0 leaves
	// the deadline to the system's policy (α·t_ext when deadline
	// enforcement is on, none otherwise).
	DeadlineMs float64 `json:"deadline_ms,omitempty"`
	// CancelAtMs, when > 0, is the absolute time at which the client
	// cancels the request: queued work is removed, in-flight work stops at
	// its next block boundary. 0 means the client never cancels.
	CancelAtMs float64 `json:"cancel_at_ms,omitempty"`
	// Cohort names the client cohort that generated the arrival (see
	// GenerateCohorts); empty for single-population generators.
	Cohort string `json:"cohort,omitempty"`
}

// finite reports whether no value is NaN or infinite. Every Validate asks
// it of its float fields: their range checks compare with < and <=, which
// NaN passes.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// validateWeights rejects non-finite and negative entries and all-zero
// vectors.
func validateWeights(weights []float64) error {
	var total float64
	for i, w := range weights {
		if !finite(w) {
			return fmt.Errorf("workload: weight %d is %v, not finite", i, w)
		}
		if w < 0 {
			return fmt.Errorf("%w: weight %d is %v", ErrNegativeWeight, i, w)
		}
		total += w
	}
	if total == 0 {
		return ErrZeroWeights
	}
	return nil
}

// Scenario is a Table 2 row: a mean arrival interval and its load label.
type Scenario struct {
	Name string
	// MeanIntervalMs is λ: the average request arrival interval in ms.
	MeanIntervalMs float64
	Load           string
}

// Table2 returns the six scenarios exactly as defined in Table 2.
func Table2() []Scenario {
	return []Scenario{
		{Name: "Scenario1", MeanIntervalMs: 160, Load: "Low"},
		{Name: "Scenario2", MeanIntervalMs: 150, Load: "Low"},
		{Name: "Scenario3", MeanIntervalMs: 140, Load: "High"},
		{Name: "Scenario4", MeanIntervalMs: 130, Load: "High"},
		{Name: "Scenario5", MeanIntervalMs: 120, Load: "High"},
		{Name: "Scenario6", MeanIntervalMs: 110, Load: "High"},
	}
}

// ScenarioByName returns the Table 2 scenario with the given name.
func ScenarioByName(name string) (Scenario, error) {
	for _, s := range Table2() {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("workload: unknown scenario %q", name)
}

// Config parameterizes a generated trace.
type Config struct {
	// Models is the task mix; each arrival picks a model according to
	// Weights (uniform when Weights is nil).
	Models []string
	// Weights optionally biases the mix; must match len(Models) if set.
	// Ignored when PerTask is set.
	Weights []float64
	// MeanIntervalMs is the Poisson process's mean inter-arrival time λ.
	// With PerTask set it is the per-task mean interval.
	MeanIntervalMs float64
	// PerTask, when true, models the paper's deployment (§4.1): every task
	// generates requests independently, each as its own Poisson process
	// with mean interval MeanIntervalMs. The merged stream therefore has a
	// mean interval of MeanIntervalMs / len(Models), which is what makes
	// Table 2's λ = 110..140 ms "High" load against a ~28 ms mean service
	// time (and λ = 90 ms unstable, per the §5.1 footnote).
	PerTask bool
	// Count is the number of requests (the paper uses 1000).
	Count int
	// Seed drives the generator.
	Seed int64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if len(c.Models) == 0 {
		return fmt.Errorf("workload: no models configured")
	}
	if c.Weights != nil {
		if len(c.Weights) != len(c.Models) {
			return fmt.Errorf("workload: %d weights for %d models", len(c.Weights), len(c.Models))
		}
		if err := validateWeights(c.Weights); err != nil {
			return err
		}
	}
	if !finite(c.MeanIntervalMs) || c.MeanIntervalMs <= 0 {
		return fmt.Errorf("workload: mean interval %v is not positive and finite", c.MeanIntervalMs)
	}
	if c.Count <= 0 {
		return fmt.Errorf("workload: non-positive count %d", c.Count)
	}
	return nil
}

// Generate produces the arrival trace. Without PerTask it is a single
// Poisson process with mean inter-arrival MeanIntervalMs and independently
// sampled models. With PerTask it is the superposition of one independent
// Poisson process per model, truncated to the Count earliest requests and
// re-IDed in time order.
func Generate(cfg Config) ([]Arrival, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.PerTask {
		return generatePerTask(cfg), nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	arrivals := make([]Arrival, 0, cfg.Count)
	var t float64
	for i := 0; i < cfg.Count; i++ {
		t += rng.ExpFloat64() * cfg.MeanIntervalMs
		arrivals = append(arrivals, Arrival{
			ID:    i,
			Model: pickModel(cfg, rng),
			AtMs:  t,
		})
	}
	return arrivals, nil
}

// generatePerTask superposes one independent Poisson stream per model via
// the cohort engine's lazy k-way heap merge. Every stream is consulted up
// to exactly the merge horizon, so the Count-prefix is the true
// superposition — the eager predecessor over-generated Count/k+1 arrivals
// per stream and truncated the sorted concatenation, silently dropping any
// stream's arrivals past its own (randomly short) horizon and biasing the
// trace tail. Equal-time ties order by model index, deterministically.
func generatePerTask(cfg Config) []Arrival {
	cohorts := make([]Cohort, len(cfg.Models))
	for i, m := range cfg.Models {
		cohorts[i] = Cohort{
			Models:  []string{m},
			Process: Process{Kind: ProcPoisson, MeanIntervalMs: cfg.MeanIntervalMs},
		}
	}
	arrivals, err := GenerateCohorts(CohortSetConfig{Cohorts: cohorts, Count: cfg.Count, Seed: cfg.Seed})
	if err != nil {
		// Config passed Validate, so the derived cohort set is valid too.
		panic(fmt.Sprintf("workload: per-task cohort set: %v", err))
	}
	return arrivals
}

// MustGenerate is Generate that panics on error, for fixed test configs.
func MustGenerate(cfg Config) []Arrival {
	a, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

func pickModel(cfg Config, rng *rand.Rand) string {
	if cfg.Weights == nil {
		return cfg.Models[rng.Intn(len(cfg.Models))]
	}
	return pickWeighted(rng, cfg.Models, cfg.Weights)
}

// TaskIntervalFactor calibrates the per-task arrival interval against the
// paper's "hardware tolerance" footnote (§5.1): the testbed saturates just
// below λ = 90 ms and degenerates to trivial sequential service at
// λ = 200 ms. With five tasks of ~28 ms mean isolated service, a per-task
// mean interval of TaskIntervalFactor·λ puts device utilization at ≈0.97
// for λ = 90 (growing queue), ≈0.55..0.80 across Table 2's λ = 160..110,
// and ≈0.44 at λ = 200 — reproducing the regime the paper evaluates in.
// (The real testbed reaches those utilizations at face-value λ because its
// serving path adds per-request overheads our simulator does not charge.)
const TaskIntervalFactor = 1.6

// ForScenario builds the standard evaluation config for a Table 2 scenario:
// one independent Poisson stream per benchmark model at the scenario's
// calibrated λ (§4.1: each task generates requests independently), 1000
// requests total, seeded so every system under comparison sees the
// identical trace.
func ForScenario(s Scenario, models []string, seed int64) Config {
	return Config{
		Models:         models,
		MeanIntervalMs: s.MeanIntervalMs * TaskIntervalFactor,
		PerTask:        true,
		Count:          1000,
		Seed:           seed,
	}
}

// MMPPConfig parameterizes a two-state Markov-modulated Poisson process —
// an extension beyond the paper's plain Poisson workload that models bursty
// edge traffic (e.g. pedestrians arriving in clusters): the process
// alternates between a calm state and a burst state with exponentially
// distributed dwell times, each state generating Poisson arrivals at its own
// rate.
type MMPPConfig struct {
	// Models is the task mix (uniform).
	Models []string
	// CalmIntervalMs is the mean inter-arrival time in the calm state.
	CalmIntervalMs float64
	// BurstIntervalMs is the mean inter-arrival time in the burst state
	// (smaller = burstier).
	BurstIntervalMs float64
	// CalmDwellMs and BurstDwellMs are the mean state dwell times.
	CalmDwellMs, BurstDwellMs float64
	// StartInBurst starts the process in its burst state; the initial
	// dwell is then drawn from BurstDwellMs rather than CalmDwellMs.
	StartInBurst bool
	// Count is the number of requests.
	Count int
	// Seed drives the generator.
	Seed int64
}

// Validate reports configuration errors.
func (c MMPPConfig) Validate() error {
	switch {
	case len(c.Models) == 0:
		return fmt.Errorf("workload: mmpp with no models")
	case !finite(c.CalmIntervalMs, c.BurstIntervalMs, c.CalmDwellMs, c.BurstDwellMs):
		return fmt.Errorf("workload: mmpp non-finite interval or dwell time")
	case c.CalmIntervalMs <= 0 || c.BurstIntervalMs <= 0:
		return fmt.Errorf("workload: mmpp non-positive intervals")
	case c.CalmDwellMs <= 0 || c.BurstDwellMs <= 0:
		return fmt.Errorf("workload: mmpp non-positive dwell times")
	case c.Count <= 0:
		return fmt.Errorf("workload: mmpp non-positive count")
	}
	return nil
}

// GenerateMMPP produces a bursty arrival trace from the two-state MMPP. An
// inter-arrival that would straddle a state switch is resampled at the new
// state's rate from the switch point (the exponential's memorylessness
// makes that exact), so the measured per-state rates converge to
// 1/CalmIntervalMs and 1/BurstIntervalMs instead of bleeding stale-rate
// intervals across switches.
func GenerateMMPP(cfg MMPPConfig) ([]Arrival, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	st := mmppState{
		calmMs:       cfg.CalmIntervalMs,
		burstMs:      cfg.BurstIntervalMs,
		calmDwellMs:  cfg.CalmDwellMs,
		burstDwellMs: cfg.BurstDwellMs,
		burst:        cfg.StartInBurst,
	}
	st.start(rng)
	arrivals := make([]Arrival, 0, cfg.Count)
	var t float64
	for i := 0; i < cfg.Count; i++ {
		t = st.next(rng, t, 1)
		arrivals = append(arrivals, Arrival{
			ID:    i,
			Model: cfg.Models[rng.Intn(len(cfg.Models))],
			AtMs:  t,
		})
	}
	return arrivals, nil
}

// Burst appends `n` back-to-back arrivals of one model starting at atMs with
// the given spacing — used by tests and the elastic-splitting ablation to
// create same-type bursts.
func Burst(arrivals []Arrival, modelName string, atMs, spacingMs float64, n int) []Arrival {
	nextID := 0
	for _, a := range arrivals {
		if a.ID >= nextID {
			nextID = a.ID + 1
		}
	}
	for i := 0; i < n; i++ {
		arrivals = append(arrivals, Arrival{
			ID:    nextID + i,
			Model: modelName,
			AtMs:  atMs + float64(i)*spacingMs,
		})
	}
	return arrivals
}
