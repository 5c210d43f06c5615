// Capacity search: the maximum sustainable aggregate request rate a fleet
// configuration can hold while keeping viol@α under a target. This answers
// the provisioning question the Table 2 grid cannot — "how many req/s does
// this (devices, batch-max, placement) tuple actually buy me?" — by binary
// searching the knee of the violation-rate curve over cohort-engine traces.

package core

import (
	"fmt"
	"strings"

	"split/internal/fleet"
	"split/internal/metrics"
	"split/internal/policy"
	"split/internal/workload"
	"split/internal/zoo"
)

// CapacityConfig parameterizes one capacity search.
type CapacityConfig struct {
	// Devices is the fleet size under test.
	Devices int
	// BatchMax enables same-type micro-batching when > 1.
	BatchMax int
	// Placement names the fleet placement policy ("" = default).
	Placement string
	// Models is the request mix, drawn uniformly; nil uses the benchmark
	// zoo.
	Models []string
	// Requests is the trace length per probe (default 20000). Longer traces
	// sharpen the knee estimate and cost proportionally more.
	Requests int
	// ViolTarget is the viol@α ceiling the knee must hold (default 0.10).
	ViolTarget float64
	// Alpha is the QoS latency-target multiplier (default 4).
	Alpha float64
	// StartReqPerSec seeds the bracketing phase (default: the aggregate
	// rate of Scenario6's calibrated per-task workload).
	StartReqPerSec float64
	// Seed drives every probe's trace; each probe at the same rate sees the
	// identical trace, so the search is deterministic.
	Seed int64
}

func (c CapacityConfig) withDefaults() CapacityConfig {
	if c.Devices < 1 {
		c.Devices = 1
	}
	if c.Models == nil {
		c.Models = zoo.BenchmarkModels
	}
	if c.Requests <= 0 {
		c.Requests = 20000
	}
	if c.ViolTarget <= 0 {
		c.ViolTarget = 0.10
	}
	if c.Alpha <= 0 {
		c.Alpha = 4
	}
	if c.StartReqPerSec <= 0 {
		sc := workload.Table2()[5]
		perTaskMs := sc.MeanIntervalMs * workload.TaskIntervalFactor
		c.StartReqPerSec = float64(len(c.Models)) / perTaskMs * 1000
	}
	return c
}

// CapacityRow is one configuration's measured knee.
type CapacityRow struct {
	Devices   int
	BatchMax  int
	Placement string
	// KneeReqPerSec is the highest probed aggregate rate holding
	// viol@Alpha <= ViolTarget.
	KneeReqPerSec float64
	// ViolAtKnee is the measured violation rate at the knee.
	ViolAtKnee float64
	// Evals counts the probes the search spent.
	Evals int
}

// CapacitySearch binary-searches the max sustainable aggregate req/s for
// one fleet configuration. Each probe generates a fresh uniform-mix Poisson
// trace at the candidate rate and replays it through policy.Split; the
// violation-rate curve is flat and low below saturation and climbs steeply
// past it, so doubling brackets the knee and bisection pins it to ~2%. The
// search runs its probes one at a time: each probe's rate depends on the
// verdict of the one before, so there is nothing to run side by side.
func (d *Deployment) CapacitySearch(cfg CapacityConfig) CapacityRow {
	cfg = cfg.withDefaults()
	row := CapacityRow{Devices: cfg.Devices, BatchMax: cfg.BatchMax, Placement: cfg.Placement}

	probe := func(reqPerSec float64) float64 {
		row.Evals++
		recs, _ := d.loadProbe(cfg, reqPerSec, fleet.AdmissionConfig{}, fleet.AutoscaleConfig{})
		return metrics.ViolationRate(recs, cfg.Alpha)
	}

	// Bracket: grow until the target breaks, shrink if even the start
	// overloads.
	lo, hi := 0.0, cfg.StartReqPerSec
	var violLo float64
	for v := probe(hi); v <= cfg.ViolTarget && hi <= 1e6; v = probe(hi) {
		lo, violLo = hi, v
		hi *= 2
	}
	for lo == 0 && hi > 1e-3 {
		hi /= 2
		if v := probe(hi); v <= cfg.ViolTarget {
			lo, violLo = hi, v
			hi *= 2 // the rate just above, which already failed
			break
		}
	}
	if lo == 0 {
		// Nothing sustains the target; report a zero knee.
		return row
	}
	// Bisect the knee to ~2% relative width.
	for hi-lo > 0.02*lo {
		mid := (lo + hi) / 2
		if v := probe(mid); v <= cfg.ViolTarget {
			lo, violLo = mid, v
		} else {
			hi = mid
		}
	}
	row.KneeReqPerSec = lo
	row.ViolAtKnee = violLo
	return row
}

// loadProbe is the single measurement path shared by CapacitySearch and
// SaturationAnalyzer: generate a fresh uniform-mix Poisson trace at the
// offered aggregate rate and replay it through policy.Split, optionally with
// the front-door admission gate or the elastic-fleet controller installed.
// Because both searches probe through this one function with the same seed,
// their curves sample the identical deterministic function of offered load
// and their knees are directly comparable.
func (d *Deployment) loadProbe(cfg CapacityConfig, reqPerSec float64, gate fleet.AdmissionConfig, elastic fleet.AutoscaleConfig) ([]policy.Record, policy.FleetStats) {
	arrivals := workload.MustGenerateCohorts(workload.CohortSetConfig{
		Cohorts: []workload.Cohort{{
			Models:  cfg.Models,
			Process: workload.Process{Kind: workload.ProcPoisson, MeanIntervalMs: 1000 / reqPerSec},
		}},
		Count: cfg.Requests,
		Seed:  cfg.Seed,
	})
	sys := policy.NewSplit()
	sys.Alpha = cfg.Alpha
	sys.Devices = cfg.Devices
	sys.Placement = cfg.Placement
	sys.BatchMax = cfg.BatchMax
	sys.Admission = gate
	sys.Fleet = elastic
	return sys.RunWithStats(arrivals, d.Catalog, nil)
}

// CapacitySweep runs CapacitySearch across fleet sizes with otherwise
// shared settings. The searches are independent, so they share the cores.
func (d *Deployment) CapacitySweep(cfg CapacityConfig, devices []int) []CapacityRow {
	rows := make([]CapacityRow, len(devices))
	each(len(devices), func(i int) {
		c := cfg
		c.Devices = devices[i]
		rows[i] = d.CapacitySearch(c)
	})
	return rows
}

// RenderCapacity formats the rows.
func RenderCapacity(rows []CapacityRow, viol float64, alpha float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "max sustainable req/s holding viol@%g <= %.0f%%\n", alpha, viol*100)
	fmt.Fprintf(&b, "%7s %9s %-13s %12s %12s %6s\n",
		"devices", "batch-max", "placement", "knee req/s", "viol@knee", "evals")
	for _, r := range rows {
		pl := r.Placement
		if pl == "" {
			pl = "default"
		}
		fmt.Fprintf(&b, "%7d %9d %-13s %12.1f %11.1f%% %6d\n",
			r.Devices, r.BatchMax, pl, r.KneeReqPerSec, r.ViolAtKnee*100, r.Evals)
	}
	return b.String()
}
