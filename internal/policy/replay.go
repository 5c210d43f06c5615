package policy

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"split/internal/gpusim"
	"split/internal/workload"
)

// replay is the part of a simulated run all six systems share: the
// validated trace, the virtual clock it is fed into, and one record slot per
// arrival.
type replay struct {
	sim      *gpusim.Sim
	arrivals []workload.Arrival
	models   modelMemo
	// cancels are the trace's client cancellations in firing order.
	cancels []cancelAt
	// records[i] is arrivals[i]'s outcome: a system files each where it
	// belongs instead of appending in completion order and sorting a million
	// records at the end. filed counts them, since a pre-sized slice no
	// longer shows a lost or doubled outcome in its length.
	records []Record
	filed   int
	// ascending reports that IDs rise in arrival order, so records are
	// already in the ID order Run promises.
	ascending bool
}

// cancelAt is arrival idx's client cancellation, due at atMs.
type cancelAt struct {
	atMs float64
	idx  int
}

// modelMemo resolves a trace's models against the catalog once each: a trace
// names a handful of models a million times, and comparing a few names is
// cheaper than hashing one. Past memoSize distinct models it falls through
// to the catalog, so a trace over a huge catalog pays the map, not the scan.
type modelMemo struct {
	catalog Catalog
	n       int
	names   [memoSize]string
	infos   [memoSize]*ModelInfo
}

const memoSize = 8

// lookup returns the model's catalog entry, nil when it is not deployed.
func (m *modelMemo) lookup(name string) *ModelInfo {
	for i, known := range m.names[:m.n] {
		if known == name {
			return m.infos[i]
		}
	}
	info := m.catalog[name]
	if info != nil && m.n < memoSize {
		m.names[m.n], m.infos[m.n] = name, info
		m.n++
	}
	return info
}

// newReplay validates the trace and sets up an idle run over it.
func newReplay(arrivals []workload.Arrival, catalog Catalog) *replay {
	rp := &replay{
		sim:      gpusim.New(),
		arrivals: arrivals,
		models:   modelMemo{catalog: catalog},
		records:  make([]Record, len(arrivals)),
	}
	rp.cancels, rp.ascending = validateArrivals(arrivals, &rp.models)
	return rp
}

// validateArrivals panics on traces no generator should produce — arrivals
// out of time order, times that are negative or not finite, unknown models —
// because such bugs must not be silently absorbed into results. The same
// pass collects the cancellations, ordered as preloading them would have
// fired them, and notes whether IDs ascend.
func validateArrivals(arrivals []workload.Arrival, models *modelMemo) (cancels []cancelAt, ascending bool) {
	ascending = true
	prev, prevID := 0.0, math.MinInt
	for i := range arrivals {
		a := &arrivals[i]
		if math.IsNaN(a.AtMs) || math.IsInf(a.AtMs, 0) || a.AtMs < 0 ||
			math.IsNaN(a.CancelAtMs) || math.IsInf(a.CancelAtMs, 0) {
			panic(fmt.Sprintf("policy: arrival %d has an invalid time (at %v, cancel at %v)", a.ID, a.AtMs, a.CancelAtMs))
		}
		if a.AtMs < prev {
			panic(fmt.Sprintf("policy: arrival trace not time-ordered at id %d", a.ID))
		}
		prev = a.AtMs
		if models.lookup(a.Model) == nil {
			panic(fmt.Sprintf("policy: arrival %d references unknown model %q", a.ID, a.Model))
		}
		if a.ID < prevID {
			ascending = false
		}
		prevID = a.ID
		if a.CancelAtMs > 0 {
			cancels = append(cancels, cancelAt{atMs: a.CancelAtMs, idx: i})
		}
	}
	// A cancellation may be due before its own arrival (it then finds
	// nothing), so the cancels have an order of their own.
	slices.SortFunc(cancels, func(x, y cancelAt) int {
		return cmp.Or(cmp.Compare(x.atMs, y.atMs), cmp.Compare(x.idx, y.idx))
	})
	return cancels, ascending
}

// file counts one filed outcome and returns arrival slot's record for the
// caller to write it into.
func (rp *replay) file(slot int) *Record {
	rp.filed++
	return &rp.records[slot]
}

// run replays the trace to completion and returns the records in ID order.
// arrive(i, info, now) fires for arrivals[i], info its model's catalog entry,
// at its AtMs; cancel(i, now), when non-nil, for arrivals[i]'s cancellation
// at its CancelAtMs.
func (rp *replay) run(arrive func(i int, info *ModelInfo, now float64), cancel func(i int, now float64)) []Record {
	rp.feed(arrive, cancel)
	return rp.finish()
}

// feed is run's event loop. The trace is fed from a cursor, not planted in
// the event heap: at each step whichever of {next arrival, next cancel, heap
// top} is earliest fires, so the heap holds only the timers of work in
// flight and no closure is built per arrival.
//
// The firing order is exactly the one planting the whole trace before the
// run — arrive(0), cancel(0), arrive(1), … — would give, the total order
// (time, planting sequence): an arrival or a cancel beats a same-instant
// timer, because every timer is planted during the run; and cancel(i) beats
// arrive(j) at the same instant iff i < j. FuzzFeedMatchesPreload holds it
// to that.
func (rp *replay) feed(arrive func(i int, info *ModelInfo, now float64), cancel func(i int, now float64)) {
	sim, arrivals, cancels := rp.sim, rp.arrivals, rp.cancels
	if cancel == nil {
		cancels = nil
	}
	ai, ci := 0, 0
	for ai < len(arrivals) || ci < len(cancels) {
		// The trace's next event is arrivals[ai] unless cancels[ci] precedes it.
		at, isCancel := 0.0, false
		if ai < len(arrivals) {
			at = arrivals[ai].AtMs
		}
		if ci < len(cancels) {
			if c := cancels[ci]; ai == len(arrivals) || c.atMs < at || c.atMs == at && c.idx < ai {
				at, isCancel = c.atMs, true
			}
		}
		for sim.NextAt() < at {
			sim.Step()
		}
		sim.Advance(at)
		if isCancel {
			cancel(cancels[ci].idx, sim.Now())
			ci++
		} else {
			arrive(ai, rp.models.lookup(arrivals[ai].Model), sim.Now())
			ai++
		}
	}
	sim.Run()
}

// pool is a baseline run's supply of request structs, as the engine's slab
// and Engine.Release are SPLIT's: get hands out one a system put back after
// filing its record, else the next entry of a chunk. Chunks double from
// poolMin to poolMax entries, so a run holds about as many structs as it
// ever had requests in flight, however long the trace.
type pool[T any] struct {
	free  []*T
	slab  []T
	chunk int
}

const (
	poolMin = 8
	poolMax = 128
)

// get returns a struct with whatever its last user left in it; the caller
// overwrites all of it.
//
//lint:hotpath every baseline arrival draws its request here
func (p *pool[T]) get() *T {
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free = p.free[:n-1]
		return x
	}
	if len(p.slab) == 0 {
		p.chunk = min(max(2*p.chunk, poolMin), poolMax)
		//lint:ignore hotalloc amortized refill: one allocation per chunk of requests in flight
		p.slab = make([]T, p.chunk)
	}
	x := &p.slab[0]
	p.slab = p.slab[1:]
	return x
}

// put hands x back once its record is filed; nothing may read it again.
//
//lint:hotpath every baseline request is handed back here
func (p *pool[T]) put(x *T) {
	//lint:ignore hotalloc bounded by the peak number of requests in flight
	p.free = append(p.free, x)
}

// finish checks that the drained run left every arrival exactly one outcome
// and puts the records in ID order.
func (rp *replay) finish() []Record {
	if rp.filed != len(rp.arrivals) {
		panic(fmt.Sprintf("policy: %d outcomes filed for %d arrivals", rp.filed, len(rp.arrivals)))
	}
	if !rp.ascending {
		slices.SortFunc(rp.records, func(x, y Record) int { return cmp.Compare(x.ID, y.ID) })
	}
	return rp.records
}
