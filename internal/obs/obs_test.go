package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotone
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
}

// TestGaugeReadsAtScrape: a gauge reports what its read function returns
// at the moment it is read, the first registration's read function wins,
// and a gauge registered without one reads 0.
func TestGaugeReadsAtScrape(t *testing.T) {
	reg := NewRegistry()
	depth := 2
	g := reg.GaugeFunc("split_queue_depth", "h", func() float64 { return float64(depth) })
	if g.Value() != 2 {
		t.Fatalf("gauge = %v, want 2", g.Value())
	}
	depth = 7
	if again := reg.GaugeFunc("split_queue_depth", "h", func() float64 { return -1 }); again != g || g.Value() != 7 {
		t.Fatalf("re-registered gauge = %v, want the first one reading 7", again.Value())
	}
	if v := reg.Gauge("split_queue_depth", "h").Value(); v != 7 {
		t.Fatalf("looked-up gauge = %v, want 7", v)
	}
	if v := reg.Gauge("split_elastic_suppressed", "h").Value(); v != 0 {
		t.Fatalf("gauge with no read function = %v, want 0", v)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 5, 10})
	for _, v := range []float64{0.5, 1, 2, 7, 10, 99} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
	if got, want := h.Sum(), 0.5+1+2+7+10+99; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	// Per-bucket (non-cumulative): le=1 → {0.5, 1}; le=5 → {2}; le=10 → {7, 10}; +Inf → {99}.
	for i, want := range []int64{2, 1, 2, 1} {
		if got := h.counts[i].Load(); got != want {
			t.Errorf("bucket %d = %d, want %d", i, got, want)
		}
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram(DefaultLatencyBuckets())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(g*1000+i) / 100)
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	var inBuckets int64
	for i := range h.counts {
		inBuckets += h.counts[i].Load()
	}
	if inBuckets != 8000 {
		t.Fatalf("bucket total = %d, want 8000", inBuckets)
	}
}

func TestRegistryIdempotentAndConcurrent(t *testing.T) {
	reg := NewRegistry()
	c1 := reg.Counter("x_total", "h", "model", "vgg19")
	c2 := reg.Counter("x_total", "h", "model", "vgg19")
	if c1 != c2 {
		t.Fatal("same name+labels returned distinct counters")
	}
	if c3 := reg.Counter("x_total", "h", "model", "yolov2"); c3 == c1 {
		t.Fatal("distinct labels shared a counter")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				reg.Counter("x_total", "h", "model", "vgg19").Inc()
			}
		}()
	}
	wg.Wait()
	if c1.Value() != 1600 {
		t.Fatalf("counter = %d, want 1600", c1.Value())
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("y_total", "h")
	defer func() {
		if recover() == nil {
			t.Error("kind conflict did not panic")
		}
	}()
	reg.Gauge("y_total", "h")
}

func TestLabelKeyCanonical(t *testing.T) {
	a := labelKey([]string{"model", "vgg19", "class", "long"})
	b := labelKey([]string{"class", "long", "model", "vgg19"})
	if a != b || a != `{class="long",model="vgg19"}` {
		t.Fatalf("label keys %q / %q", a, b)
	}
	if labelKey(nil) != "" {
		t.Error("empty labels should render empty")
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("split_requests_total", "requests accepted", "model", "vgg19").Add(3)
	reg.Counter("split_requests_total", "requests accepted", "model", "yolov2").Inc()
	reg.GaugeFunc("split_queue_depth", "waiting requests", func() float64 { return 2 })
	h := reg.Histogram("split_wait_ms", "waiting latency", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(100)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE split_queue_depth gauge",
		"split_queue_depth 2",
		"# TYPE split_requests_total counter",
		`split_requests_total{model="vgg19"} 3`,
		`split_requests_total{model="yolov2"} 1`,
		"# TYPE split_wait_ms histogram",
		`split_wait_ms_bucket{le="1"} 1`,
		`split_wait_ms_bucket{le="10"} 2`,
		`split_wait_ms_bucket{le="+Inf"} 3`,
		"split_wait_ms_sum 105.5",
		"split_wait_ms_count 3",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Deterministic family order: gauge name sorts before counter name here.
	if strings.Index(out, "split_queue_depth") > strings.Index(out, "split_requests_total") {
		t.Error("families not sorted by name")
	}
}

func TestWritePrometheusNilRegistry(t *testing.T) {
	var reg *Registry
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil || b.Len() != 0 {
		t.Fatalf("nil registry: err=%v out=%q", err, b.String())
	}
}

func TestHistogramLabeledExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("split_e2e_ms", "e2e", []float64{10}, "model", "vgg19").Observe(3)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`split_e2e_ms_bucket{model="vgg19",le="10"} 1`,
		`split_e2e_ms_bucket{model="vgg19",le="+Inf"} 1`,
		`split_e2e_ms_sum{model="vgg19"} 3`,
		`split_e2e_ms_count{model="vgg19"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
