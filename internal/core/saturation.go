// Saturation analysis: the full throughput-vs-QoS curve of a deployment
// under increasing offered load, and the knee where the violation rate
// leaves the acceptable band. CapacitySearch answers "where is the knee?"
// with the fewest probes; SaturationAnalyzer spends a linear grid around it
// to show the *shape* — how throughput flattens and violations climb past
// saturation — and can measure the same sweep with the front-door admission
// gate or the elastic-fleet controller installed.

package core

import (
	"fmt"
	"sort"
	"strings"

	"split/internal/fleet"
	"split/internal/metrics"
)

// SaturationConfig parameterizes one saturation sweep. The embedded
// CapacityConfig supplies the probe parameters (fleet shape, trace length,
// QoS target, seed) exactly as CapacitySearch interprets them.
type SaturationConfig struct {
	CapacityConfig
	// Points is the linear grid resolution across the bracketed knee region
	// (default 16). More points sharpen the curve and the knee estimate.
	Points int
	// Admission optionally installs the front-door gate in every probe.
	// QoS is then computed over admitted records only — the gate's promise
	// is to the requests it lets in, not to the ones it turns away.
	Admission fleet.AdmissionConfig
	// Fleet optionally probes an elastic fleet instead of a fixed one; the
	// per-point DeviceHoursMs then reflects the autoscaler's actual spend.
	Fleet fleet.AutoscaleConfig
}

func (c SaturationConfig) withDefaults() SaturationConfig {
	c.CapacityConfig = c.CapacityConfig.withDefaults()
	if c.Points <= 0 {
		c.Points = 16
	}
	return c
}

// SaturationPoint is one measured offered-load level.
type SaturationPoint struct {
	// OfferedReqPerSec is the trace's aggregate arrival rate.
	OfferedReqPerSec float64
	// ThroughputReqPerSec is the served completion rate over the probe's
	// makespan — it tracks the offered rate below saturation and flattens
	// at the fleet's service capacity above it.
	ThroughputReqPerSec float64
	// ViolRate is viol@Alpha over admitted records.
	ViolRate float64
	// AdmitFrac is the admitted fraction (1 with the gate disabled).
	AdmitFrac float64
	// DeviceHoursMs is the attached device-time the probe spent.
	DeviceHoursMs float64
}

// KneeState classifies a sweep's knee estimate. The curve only brackets a
// knee when it contains both a point that holds the violation target and a
// later one that breaks it; the two edge shapes are typed sentinels so
// callers cannot mistake "the sweep never found the knee" for a measured
// capacity of zero (or of the highest rate probed).
type KneeState string

const (
	// KneeFound: the curve holds the target and then breaks it, so the knee
	// is bracketed to the grid resolution.
	KneeFound KneeState = "found"
	// KneeBelowRange: the FIRST probed point already breaks the target —
	// the deployment saturates below every rate probed and the knee fields
	// are zero, not a measurement.
	KneeBelowRange KneeState = "below-range"
	// KneeAboveRange: NO probed point breaks the target (an all-green
	// curve). The knee fields hold the highest green point — a lower bound
	// on capacity, not the knee itself.
	KneeAboveRange KneeState = "above-range"
)

// SaturationResult is one sweep's curve and knee.
type SaturationResult struct {
	// Points is the measured curve, ascending in offered rate. Every probe
	// lands here, including the bracketing ones.
	Points []SaturationPoint
	// KneeReqPerSec is the highest probed offered rate below the first
	// point that breaks the violation target — the same bracketing
	// semantics CapacitySearch bisects, so the two estimates agree to the
	// grid resolution. Meaningful only per KneeState: zero when the knee is
	// below the probed range, a lower bound when above it.
	KneeReqPerSec float64
	// ViolAtKnee and ThroughputAtKnee are the knee point's measurements.
	ViolAtKnee       float64
	ThroughputAtKnee float64
	// KneeState says whether KneeReqPerSec is a bracketed knee or one of
	// the typed edge sentinels.
	KneeState KneeState
	// Evals counts the probes spent.
	Evals int
}

// selectKnee reads the knee off a curve that is ascending in offered rate:
// the last point holding the violation target before the first that breaks
// it. The two unbracketed shapes return their typed sentinels — a zero
// point for below-range, the highest green point for above-range.
func selectKnee(points []SaturationPoint, violTarget float64) (SaturationPoint, KneeState) {
	var knee SaturationPoint
	green, broke := false, false
	for _, p := range points {
		if p.ViolRate > violTarget {
			broke = true
			break
		}
		knee, green = p, true
	}
	switch {
	case !green:
		return SaturationPoint{}, KneeBelowRange
	case !broke:
		return knee, KneeAboveRange
	}
	return knee, KneeFound
}

// SaturationAnalyzer sweeps offered load through the shared
// CapacitySearch probe machinery and reports the throughput-vs-QoS curve.
type SaturationAnalyzer struct {
	dep *Deployment
	cfg SaturationConfig
}

// NewSaturationAnalyzer binds a deployment and a sweep configuration.
func NewSaturationAnalyzer(d *Deployment, cfg SaturationConfig) *SaturationAnalyzer {
	return &SaturationAnalyzer{dep: d, cfg: cfg.withDefaults()}
}

// Probe measures one offered-load level with the analyzer's gate and fleet
// settings. Exposed so callers (splitexp saturation, the overload tests) can measure
// a specific rate — e.g. 2x the knee — without running the whole sweep.
func (a *SaturationAnalyzer) Probe(reqPerSec float64) SaturationPoint {
	recs, stats := a.dep.loadProbe(a.cfg.CapacityConfig, reqPerSec, a.cfg.Admission, a.cfg.Fleet)
	admitted := metrics.Admitted(recs)
	p := SaturationPoint{
		OfferedReqPerSec: reqPerSec,
		ViolRate:         metrics.ViolationRate(admitted, a.cfg.Alpha),
		AdmitFrac:        1,
		DeviceHoursMs:    stats.DeviceHoursMs,
	}
	if len(recs) > 0 {
		p.AdmitFrac = float64(len(admitted)) / float64(len(recs))
	}
	served, lastDoneMs := 0, 0.0
	for _, r := range recs {
		if r.Served() {
			served++
			if r.DoneMs > lastDoneMs {
				lastDoneMs = r.DoneMs
			}
		}
	}
	if lastDoneMs > 0 {
		p.ThroughputReqPerSec = float64(served) / (lastDoneMs / 1000)
	}
	return p
}

// Analyze runs the sweep: a doubling bracket finds the knee region, a
// linear grid of Points fills it in, and the knee is read off the combined
// curve. A deployment that cannot hold the target at any probed rate
// reports a zero knee with the probed points intact.
func (a *SaturationAnalyzer) Analyze() SaturationResult {
	cfg := a.cfg
	var res SaturationResult
	probe := func(rate float64) SaturationPoint {
		res.Evals++
		p := a.Probe(rate)
		res.Points = append(res.Points, p)
		return p
	}

	// Bracket exactly as CapacitySearch does: double until the target
	// breaks, shrink if even the starting rate overloads.
	lo, hi := 0.0, cfg.StartReqPerSec
	for p := probe(hi); p.ViolRate <= cfg.ViolTarget && hi <= 1e6; p = probe(hi) {
		lo = hi
		hi *= 2
	}
	for lo == 0 && hi > 1e-3 {
		hi /= 2
		if p := probe(hi); p.ViolRate <= cfg.ViolTarget {
			lo = hi
			hi *= 2
			break
		}
	}
	if lo > 0 {
		// Grid the bracket interior; the endpoints are already measured.
		step := (hi - lo) / float64(cfg.Points+1)
		grid := make([]SaturationPoint, cfg.Points)
		each(len(grid), func(i int) { grid[i] = a.Probe(lo + step*float64(i+1)) })
		res.Points = append(res.Points, grid...)
		res.Evals += len(grid)
	}

	sort.Slice(res.Points, func(i, j int) bool {
		return res.Points[i].OfferedReqPerSec < res.Points[j].OfferedReqPerSec
	})
	knee, state := selectKnee(res.Points, cfg.ViolTarget)
	res.KneeReqPerSec = knee.OfferedReqPerSec
	res.ViolAtKnee = knee.ViolRate
	res.ThroughputAtKnee = knee.ThroughputReqPerSec
	res.KneeState = state
	return res
}

// RenderSaturation formats the curve with the knee marked.
func RenderSaturation(res SaturationResult, viol float64, alpha float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "throughput-vs-QoS saturation curve (target viol@%g <= %.0f%%)\n", alpha, viol*100)
	fmt.Fprintf(&b, "%14s %14s %10s %10s %14s\n",
		"offered req/s", "served req/s", "viol", "admit", "device-hrs ms")
	for _, p := range res.Points {
		mark := " "
		if res.KneeState == KneeFound && p.OfferedReqPerSec == res.KneeReqPerSec {
			mark = "*"
		}
		fmt.Fprintf(&b, "%13.1f%s %14.1f %9.1f%% %9.0f%% %14.0f\n",
			p.OfferedReqPerSec, mark, p.ThroughputReqPerSec, p.ViolRate*100, p.AdmitFrac*100, p.DeviceHoursMs)
	}
	switch res.KneeState {
	case KneeBelowRange:
		lowest := 0.0
		if len(res.Points) > 0 {
			lowest = res.Points[0].OfferedReqPerSec
		}
		fmt.Fprintf(&b, "knee: below probed range — even the lowest probe (%.1f req/s) breaks the target (%d evals)\n",
			lowest, res.Evals)
	case KneeAboveRange:
		fmt.Fprintf(&b, "knee: above probed range — target held at every probed rate; >= %.1f req/s (viol %.1f%%, %.1f served req/s, %d evals)\n",
			res.KneeReqPerSec, res.ViolAtKnee*100, res.ThroughputAtKnee, res.Evals)
	default:
		fmt.Fprintf(&b, "knee: %.1f req/s (viol %.1f%%, %.1f served req/s, %d evals)\n",
			res.KneeReqPerSec, res.ViolAtKnee*100, res.ThroughputAtKnee, res.Evals)
	}
	return b.String()
}
