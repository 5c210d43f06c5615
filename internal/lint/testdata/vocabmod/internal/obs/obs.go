// Package obs declares the metrics surface whose family-name literals the
// vocab rule polices at call sites outside this package.
package obs

// Registry mimics the real registry constructors.
type Registry struct{}

// MetricQueueDepth is the canonical family name callers should reference.
const MetricQueueDepth = "split_queue_depth"

func (r *Registry) Counter(name string) int   { _ = name; return 0 }
func (r *Registry) Gauge(name string) int     { _ = name; return 0 }
func (r *Registry) GaugeFunc(name string) int { _ = name; return 0 }
func (r *Registry) Histogram(name string) int { _ = name; return 0 }
