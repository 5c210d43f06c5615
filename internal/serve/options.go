package serve

import (
	"split/internal/gpusim"
	"split/internal/obs"
	"split/internal/policy"
	"split/internal/sched"
	"split/internal/trace"
	"split/internal/workload"
)

// Option sets one field of the Config New assembles. The options are a
// second spelling of the fields callers set most; every knob — including
// the ones with no option, such as Fleet, Admission, BatchMax and
// Partitions — is a Config field, and NewServer takes a filled-in Config
// directly.
type Option func(*Config)

// New builds a server for catalog with the given options. Zero options
// yield the paper's defaults: α=4, real-time scale, one device, unbounded
// queue, no deadlines, no fault injection.
func New(catalog policy.Catalog, opts ...Option) (*Server, error) {
	cfg := Config{Catalog: catalog}
	for _, opt := range opts {
		if opt != nil {
			opt(&cfg)
		}
	}
	return NewServer(cfg)
}

// WithAlpha sets the latency-target multiplier used in scheduling
// decisions (values <= 0 fall back to the default 4).
func WithAlpha(alpha float64) Option {
	return func(c *Config) { c.Alpha = alpha }
}

// WithElastic configures §3.3 elastic splitting.
func WithElastic(e sched.Elastic) Option {
	return func(c *Config) { c.Elastic = e }
}

// WithTimeScale converts simulated block milliseconds to wall-clock
// milliseconds (1.0 = real time; 0.01 = 100x accelerated).
func WithTimeScale(scale float64) Option {
	return func(c *Config) { c.TimeScale = scale }
}

// WithMaxQueue caps the number of waiting requests across the fleet;
// arrivals beyond it are rejected with ErrQueueFull. 0 means unbounded.
func WithMaxQueue(n int) Option {
	return func(c *Config) { c.MaxQueue = n }
}

// WithQoSWindow sizes the rolling online QoS window (completions);
// <= 0 selects obs.DefaultQoSWindow.
func WithQoSWindow(n int) Option {
	return func(c *Config) { c.QoSWindow = n }
}

// WithDeadlines enables deadline enforcement: every request gets an
// absolute deadline ArriveMs + α·t_ext (unless the RPC supplies its own)
// and expired requests are shed at block boundaries. alpha > 0 also sets
// the scheduling α; pass 0 to keep the configured one.
func WithDeadlines(alpha float64) Option {
	return func(c *Config) {
		c.EnforceDeadlines = true
		if alpha > 0 {
			c.Alpha = alpha
		}
	}
}

// WithPredictiveShed additionally sheds requests that can no longer finish
// by their deadline even if granted the device immediately.
func WithPredictiveShed(on bool) Option {
	return func(c *Config) { c.PredictiveShed = on }
}

// WithFaults injects deterministic block-latency spikes and transient
// block failures with bounded per-block retry; on a fleet each device gets
// a decorrelated schedule (FaultInjector.ForDevice).
func WithFaults(f *gpusim.FaultInjector) Option {
	return func(c *Config) { c.Faults = f }
}

// WithObs attaches a live metrics registry (split_* families, plus
// split_device_* on fleets).
func WithObs(reg *obs.Registry) Option {
	return func(c *Config) { c.Obs = reg }
}

// WithSink attaches a live scheduling-event sink (typically a trace.Ring
// flight recorder, a Tracer, or a Fanout of both).
func WithSink(sink trace.Sink) Option {
	return func(c *Config) { c.Sink = sink }
}

// WithDevices sets the fleet size: one executor goroutine and scheduler
// queue per device. Values < 1 mean a single device.
func WithDevices(n int) Option {
	return func(c *Config) { c.Devices = n }
}

// WithPlacement selects the fleet placement policy (see internal/place):
// "round-robin", "least-loaded" or "affinity". Empty selects the default.
func WithPlacement(name string) Option {
	return func(c *Config) { c.Placement = name }
}

// WithArrivalRecorder records every admitted arrival (and any later
// cancellation) into rec in workload trace form, so the live run can be
// written with workload.WriteTrace and re-simulated deterministically
// through policy.Split.
func WithArrivalRecorder(rec *workload.Recorder) Option {
	return func(c *Config) { c.ArrivalRecorder = rec }
}
