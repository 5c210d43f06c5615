// Package place is the fleet placement layer: given an arriving request
// and a snapshot of every device's load, a Placer picks the device whose
// scheduler queue the request joins. Everything downstream of that choice —
// greedy response-ratio ordering, deadlines, cancellation, drain, fault
// retry — stays per-device and unchanged.
//
// Placers are pure, deterministic state machines: their decisions depend
// only on the arrival sequence and the load views they are shown, never on
// wall-clock time or map iteration order. That is what lets the
// discrete-event simulator (policy.Split) and the real-time serving path
// (internal/serve) replay identical placement decisions for the same
// schedule — the fleet parity guarantee.
//
// A Placer is NOT safe for concurrent use; callers serialize calls (the
// server under its mutex, the simulator on its single event goroutine).
package place

import (
	"fmt"
	"strings"
)

// Canonical policy names accepted by New.
const (
	// RoundRobin cycles arrivals across devices in order — the baseline
	// that ignores load and locality.
	RoundRobin = "round-robin"
	// LeastLoaded joins the device with the shortest expected backlog
	// (queued remaining work plus the in-flight request's uncommitted
	// blocks), computed from the same per-block profiled durations the
	// scheduler itself plans with.
	LeastLoaded = "least-loaded"
	// Affinity keeps a model's requests on the device whose warm state
	// already holds its blocks: the first request of a model claims the
	// device with the fewest warm models, and every later request of that
	// model follows it.
	Affinity = "affinity"
)

// Default is the policy used when none is named.
const Default = RoundRobin

// Load is one device's placement-relevant state at decision time.
type Load struct {
	// Device is the device ID, equal to the slice index in a fleet view.
	Device int
	// Queued is the number of waiting requests in the device's queue.
	Queued int
	// QueuedMs is the summed remaining planned work of those waiting
	// requests, in (virtual) milliseconds.
	QueuedMs float64
	// InflightMs is the remaining planned work of the executing request
	// beyond its committed blocks; 0 when the device is idle. Both the
	// simulator and the server compute it as Request.RemainingMs at the
	// last block boundary, so the two paths see identical numbers.
	InflightMs float64
	// Busy reports whether a block is executing on the device.
	Busy bool
}

// ExpectedMs is the expected backlog a new arrival would queue behind.
func (l Load) ExpectedMs() float64 { return l.QueuedMs + l.InflightMs }

// Request is the placement-relevant description of an arrival.
type Request struct {
	// ID is the request ID (unique per workload).
	ID int
	// Model is the task type; affinity keys on it.
	Model string
	// ExtMs is the isolated unsplit execution time t_ext.
	ExtMs float64
	// PlannedMs is the summed block time of the plan the request will
	// execute (ExtMs when running unsplit).
	PlannedMs float64
}

// Placer chooses a device for each arriving request.
type Placer interface {
	// Name returns the canonical policy name.
	Name() string
	// Place returns the chosen device index in [0, len(fleet)). fleet is
	// indexed by device ID and is never empty.
	Place(r Request, fleet []Load) int
	// Resize tells the placer the active membership changed: active lists
	// the device IDs that remain placeable, and every subsequent Place
	// sees a fleet view of exactly those devices. Elastic pools keep the
	// active set a contiguous prefix [0, len(active)) — scale-out attaches
	// the next ID, drain-then-release removes the highest — so fleet views
	// stay indexed by device ID. Stateful policies must flush any state
	// that references a removed device; a fixed fleet never calls Resize,
	// which is what keeps fixed-N decision sequences bit-identical to the
	// pre-elastic behavior.
	Resize(active []int)
}

// New constructs the named policy for a fleet of the given size. An empty
// name selects Default. Unknown names and non-positive fleet sizes error.
func New(name string, devices int) (Placer, error) {
	if devices <= 0 {
		return nil, fmt.Errorf("place: fleet size %d, want >= 1", devices)
	}
	switch name {
	case "", Default:
		return &roundRobin{}, nil
	case LeastLoaded:
		return &leastLoaded{}, nil
	case Affinity:
		return &affinity{home: make(map[string]int), warm: make([]int, devices)}, nil
	}
	return nil, fmt.Errorf("place: unknown policy %q (want %s)", name, strings.Join(Names(), "|"))
}

// Names returns the canonical policy names in presentation order.
func Names() []string { return []string{RoundRobin, LeastLoaded, Affinity} }

// roundRobin cycles through devices by arrival order.
type roundRobin struct {
	next int
}

func (p *roundRobin) Name() string { return RoundRobin }

func (p *roundRobin) Place(_ Request, fleet []Load) int {
	dev := p.next % len(fleet)
	p.next++
	return dev
}

// Resize is a no-op: the modulo in Place can never index outside the
// current fleet view, whatever the membership history.
func (p *roundRobin) Resize([]int) {}

// leastLoaded joins the shortest expected backlog, breaking ties toward
// the lowest device ID so decisions are reproducible.
type leastLoaded struct{}

func (p *leastLoaded) Name() string { return LeastLoaded }

func (p *leastLoaded) Place(_ Request, fleet []Load) int {
	best, bestMs := 0, fleet[0].ExpectedMs()
	for i := 1; i < len(fleet); i++ {
		if ms := fleet[i].ExpectedMs(); ms < bestMs {
			best, bestMs = i, ms
		}
	}
	return best
}

// Resize is a no-op: least-loaded carries no state across decisions.
func (p *leastLoaded) Resize([]int) {}

// affinity pins each model to the device that first served it. The first
// sighting of a model claims the device with the fewest warm models (ties
// toward the lowest ID), so models spread evenly without depending on
// timing-sensitive load views — the placer's own warm-set bookkeeping is
// the only state, and it is identical in simulator and server.
type affinity struct {
	// home maps model name to its warm device.
	home map[string]int
	// warm counts models homed on each device.
	warm []int
	// evicted marks models whose home left the active set. An evicted
	// model's next arrival re-homes by load, not by warm count: eviction
	// happens at scale-in, when the surviving devices are absorbing the
	// drained device's backlog, and the fewest-warm device is often exactly
	// the one drowning in it. A fixed fleet never calls Resize, so the map
	// stays empty and first-sighting behavior is bit-identical.
	evicted map[string]bool
}

func (p *affinity) Name() string { return Affinity }

func (p *affinity) Place(r Request, fleet []Load) int {
	if dev, ok := p.home[r.Model]; ok && dev < len(fleet) {
		return dev
	}
	best := 0
	if p.evicted[r.Model] {
		// Re-home after eviction: join the least-loaded active device, so a
		// post-scale-in burst of the evicted model doesn't pile onto a
		// survivor that is already behind. Load ties break toward the fewest
		// warm models (then the lowest ID), preserving the even spread the
		// first-sighting rule gives when the survivors are equally loaded.
		delete(p.evicted, r.Model)
		for i := 1; i < len(fleet); i++ {
			li, lb := fleet[i].ExpectedMs(), fleet[best].ExpectedMs()
			if li < lb || (li == lb && p.warm[i] < p.warm[best]) {
				best = i
			}
		}
	} else {
		// First sighting: claim the device with the fewest warm models, so
		// models spread evenly without depending on timing-sensitive load
		// views.
		for i := 1; i < len(fleet); i++ {
			if p.warm[i] < p.warm[best] {
				best = i
			}
		}
	}
	p.home[r.Model] = best
	p.warm[best]++
	return best
}

// Resize evicts homes on devices that left the active set and releases
// their warm counts, so the next arrival of an evicted model re-homes on a
// live device instead of silently claiming a second home while the old
// device's warm count leaks. Models homed on surviving devices keep their
// homes — membership churn must not reshuffle warm state that is still
// valid. Evicted models are remembered so their re-homing placement is
// load-aware (see Place).
func (p *affinity) Resize(active []int) {
	live := make(map[int]bool, len(active))
	for _, id := range active {
		live[id] = true
	}
	for m, dev := range p.home {
		if !live[dev] {
			delete(p.home, m)
			if p.evicted == nil {
				p.evicted = make(map[string]bool)
			}
			p.evicted[m] = true
			if dev >= 0 && dev < len(p.warm) {
				p.warm[dev]--
			}
		}
	}
}
