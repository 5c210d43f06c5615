// Package obs is the live observability layer: allocation-light,
// concurrency-safe metric primitives (Counter, fixed-bucket Histogram, and
// Gauge, read at scrape time), a Registry with hand-rolled Prometheus
// text-format exposition, and a rolling-window online QoS estimator that
// reuses the internal/metrics formulas so live numbers agree with offline
// ones.
//
// The package is dependency-free by design (stdlib only, matching the
// zero-dep go.mod): the exposition format follows the Prometheus
// text-format 0.0.4 conventions closely enough for scraping and for
// `promtool`-style tooling, without importing a client library.
//
// Hot-path discipline: Counter is a single atomic, Histogram.Observe is a
// bounded linear scan over its bucket bounds plus three atomics, and
// neither allocates. A Gauge is never written: it is registered once with a
// function that reads state its registrant already keeps, and a scrape
// calls that function. Registry lookups (which build label keys) are for
// setup time — callers on hot paths cache the returned handles.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are ignored to keep the counter monotone.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 value that can go up and down (queue depth, mode
// flags, rolling rates), read when it is scraped: its registrant supplies a
// function reading state it already keeps, so no event has to push one.
type Gauge struct {
	read func() float64
}

// Value reads the gauge now; one registered without a read function reads 0.
func (g *Gauge) Value() float64 {
	if g.read == nil {
		return 0
	}
	return g.read()
}

// Histogram is a fixed-bucket histogram in the Prometheus style: bounds are
// upper limits, counts are exported cumulatively with a trailing +Inf
// bucket, plus _sum and _count series. Observe is lock-free.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; implicit +Inf after the last
	counts  []atomic.Int64
	sumBits atomic.Uint64
	count   atomic.Int64
}

// DefaultLatencyBuckets covers the repo's millisecond latency range, from
// sub-block times to deep-queue waits.
func DefaultLatencyBuckets() []float64 {
	return []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}
}

// DefaultRatioBuckets covers response ratios across the paper's α sweep
// (2..20) with headroom for violations.
func DefaultRatioBuckets() []float64 {
	return []float64{1, 1.5, 2, 3, 4, 6, 8, 12, 16, 20, 32, 64}
}

// newHistogram builds a histogram over sorted, strictly increasing bounds.
func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{
		bounds: bs,
		counts: make([]atomic.Int64, len(bs)+1), // +1 for +Inf
	}
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// metricKind tags a registry family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// family is one metric name with its help text and labeled series.
type family struct {
	name   string
	help   string
	kind   metricKind
	series map[string]any // label key -> *Counter | *Gauge | *Histogram
}

// Registry holds metric families and renders them in Prometheus text
// format. Creation methods are idempotent: asking for the same
// name+labels returns the existing primitive, so handles can be rebuilt
// cheaply. A nil *Registry is a valid no-op for WritePrometheus.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelKey renders alternating k,v pairs as a sorted, canonical
// `{k="v",...}` suffix ("" when unlabeled). Panics on odd-length labels —
// that is a programming error, like a malformed format string.
func labelKey(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", labels))
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		kvs = append(kvs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// lookup finds or creates the series for name+labels, enforcing kind
// consistency per family. candidate is the eagerly-built series value used
// when the key is new — building it outside the registration path is cheap
// (registration is not the hot path) and keeps arbitrary construction code
// from running under r.mu.
func (r *Registry) lookup(name, help string, kind metricKind, labels []string, candidate any) any {
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: map[string]any{}}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	m := f.series[key]
	if m == nil {
		m = candidate
		f.series[key] = m
	}
	return m
}

// Counter returns the counter for name+labels, creating it on first use.
// Labels are alternating key, value strings.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.lookup(name, help, kindCounter, labels, &Counter{}).(*Counter)
}

// Gauge returns the gauge for name+labels, registering one that reads 0 if
// there is none yet.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return r.GaugeFunc(name, help, nil, labels...)
}

// GaugeFunc registers the gauge for name+labels to read through read, or
// returns the one already registered. WritePrometheus calls read holding no
// registry lock, so read may take a lock its caller holds while registering
// series.
func (r *Registry) GaugeFunc(name, help string, read func() float64, labels ...string) *Gauge {
	return r.lookup(name, help, kindGauge, labels, &Gauge{read: read}).(*Gauge)
}

// Histogram returns the histogram for name+labels, creating it on first
// use with the given bucket upper bounds.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	return r.lookup(name, help, kindHistogram, labels, newHistogram(buckets)).(*Histogram)
}

// formatValue renders a float without exponent noise for round numbers.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// mergeLabels splices an extra k="v" pair into a rendered label key.
func mergeLabels(key, extra string) string {
	if key == "" {
		return "{" + extra + "}"
	}
	return key[:len(key)-1] + "," + extra + "}"
}

// WritePrometheus renders every family in Prometheus text format 0.0.4,
// deterministically ordered by family name then label key. Nil-safe.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	// Snapshot series pointers under the lock; values are read afterwards,
	// so a slow writer never blocks the serving path and a gauge's read
	// function runs with no registry lock held.
	type row struct {
		key string
		m   any
	}
	fams := make([]struct {
		f    *family
		rows []row
	}, 0, len(names))
	for _, n := range names {
		f := r.families[n]
		rows := make([]row, 0, len(f.series))
		for k, m := range f.series {
			rows = append(rows, row{k, m})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
		fams = append(fams, struct {
			f    *family
			rows []row
		}{f, rows})
	}
	r.mu.Unlock()

	for _, fam := range fams {
		f := fam.f
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, rw := range fam.rows {
			var err error
			switch m := rw.m.(type) {
			case *Counter:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, rw.key, m.Value())
			case *Gauge:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, rw.key, formatValue(m.Value()))
			case *Histogram:
				err = m.write(w, f.name, rw.key)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// write renders one histogram series: cumulative _bucket lines, _sum and
// _count.
func (h *Histogram) write(w io.Writer, name, key string) error {
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		le := mergeLabels(key, `le="`+formatValue(bound)+`"`)
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, le, cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabels(key, `le="+Inf"`), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, key, formatValue(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, key, h.Count())
	return err
}
