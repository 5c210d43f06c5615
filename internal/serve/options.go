package serve

import (
	"split/internal/obs"
	"split/internal/policy"
	"split/internal/trace"
	"split/internal/workload"
)

// Option sets one field of the Config New assembles. The options are a
// second spelling of the fields callers set most; every knob — including
// the ones with no option, such as Alpha, Fleet, Admission, BatchMax and
// EnforceDeadlines — is a Config field, and NewServer takes a filled-in
// Config directly.
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

// WithTimeScale converts simulated block milliseconds to wall-clock
// milliseconds (1.0 = real time; 0.01 = 100x accelerated).
func WithTimeScale(scale float64) Option {
	return func(c *Config) { c.TimeScale = scale }
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

// WithDevices sets the fleet size: one scheduler queue and hold timer per
// device. Values < 1 mean a single device.
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
