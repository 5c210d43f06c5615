package main

import (
	"fmt"
	"math"
	"time"

	"split/internal/core"
)

// ladder measures every layer from outside: each rung times calls into one
// package's exported functions, on inputs it builds itself from the seed,
// and files one or more per-layer metrics. The rungs do not depend on the
// workload being traced, so the same ladder stands next to every workload.
type ladder struct {
	e   *env
	dep *core.Deployment
	// box is how long one micro rung measures.
	box time.Duration
	out map[string]metricValue
	err error
}

// rung is one step of the ladder; its name is the span it runs under.
type rung struct {
	name string
	run  func(l *ladder)
}

// microBoxShare is the share of the measuring budget one micro rung gets:
// a 10 s run gives each of the ~60 micro rungs 40 ms.
const microBoxShare = 250

// minBatches is the fewest timed batches behind a micro rung's median.
const minBatches = 3

func newLadder(e *env, dep *core.Deployment) *ladder {
	return &ladder{
		e: e, dep: dep,
		box: e.budget / microBoxShare,
		out: make(map[string]metricValue, len(perLayer)),
	}
}

// climb runs every rung, stopping at the first that fails.
func (l *ladder) climb() {
	for _, group := range [][]rung{offlineRungs, simRungs, liveRungs} {
		for _, r := range group {
			l.e.spans.in("ladder."+r.name, func() { r.run(l) })
			if l.err != nil {
				l.err = fmt.Errorf("rung %s: %w", r.name, l.err)
				return
			}
		}
	}
}

// set files one per-layer metric; the unit comes from the declaration.
func (l *ladder) set(name string, v float64) {
	m, ok := layerByName[name]
	switch {
	case !ok:
		l.fail(fmt.Errorf("metric %s is not declared in perLayer", name))
	case math.IsNaN(v) || math.IsInf(v, 0):
		l.fail(fmt.Errorf("metric %s is %v", name, v))
	default:
		if _, dup := l.out[name]; dup {
			l.fail(fmt.Errorf("metric %s reported twice", name))
		}
		l.out[name] = metricValue{Value: v, Unit: m.unit}
	}
}

func (l *ladder) fail(err error) {
	if l.err == nil {
		l.err = err
	}
}

// n scales a default count for smoke runs, never below 1.
func (l *ladder) n(count int) int { return scaled(count, l.e.scale, 1) }

// perOp reports the nanoseconds one call of op takes. It times batches of
// n calls until the rung's box is spent and returns the median batch, so a
// batch hit by a collection or a scheduler stall does not decide the
// number. prepare, when not nil, runs untimed before every batch. The
// figure includes one indirect call per op (a nanosecond or two).
func (l *ladder) perOp(n int, prepare func(), op func(i int)) float64 {
	var per []float64
	deadline := time.Now().Add(l.box)
	for len(per) < minBatches || time.Now().Before(deadline) {
		if prepare != nil {
			prepare()
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(per)
}

// wall reports the median wall seconds of reps calls of fn.
func (l *ladder) wall(reps int, fn func()) float64 {
	took := make([]float64, reps)
	for i := range took {
		start := time.Now()
		fn()
		took[i] = time.Since(start).Seconds()
	}
	return median(took)
}

// layerMetric declares one per-layer metric: its unit, its direction, and
// the end-to-end metric and workload it is expected to move.
type layerMetric struct {
	name   string
	unit   string
	better string
	moves  string
}

var layerByName = func() map[string]layerMetric {
	m := make(map[string]layerMetric, len(perLayer))
	for _, lm := range perLayer {
		m[lm.name] = lm
	}
	return m
}()
