// Command splitd is the SPLIT inference server daemon (§4): it deploys the
// benchmark models (with split plans built by the GA or loaded from a plan
// directory written by splitexp plan) and serves inference requests over RPC,
// scheduling them with the greedy block-level preemption algorithm.
//
// Usage:
//
//	splitd -addr 127.0.0.1:7100
//	splitd -addr 127.0.0.1:7100 -plans plans/ -timescale 0.1 -alpha 4
//	splitd -addr 127.0.0.1:7100 -admin 127.0.0.1:7101
//	splitd -addr 127.0.0.1:7100 -deadlines -drain-timeout 5s
//	splitd -addr 127.0.0.1:7100 -fault-fail-prob 0.01 -fault-retries 2
//	splitd -addr 127.0.0.1:7100 -devices 4 -placement least-loaded
//	splitd -addr 127.0.0.1:7100 -batch-max 4
//	splitd -addr 127.0.0.1:7100 -record run.trace
//	splitd -addr 127.0.0.1:7100 -autoscale-max 4 -autoscale-min 1
//	splitd -addr 127.0.0.1:7100 -admit-mode token-bucket -admit-rate 50
//
// With -admin set, a live observability endpoint serves /metrics
// (Prometheus text), /healthz, /queuez (JSON queue snapshot), /tracez
// (flight-recorder JSONL; ?n=/?model=/?kind= filter), /spanz (the ring
// folded into request span trees), /timeseriesz (windowed QoS trajectory)
// and /debug/pprof on that address.
//
// With -deadlines, every request gets the paper's latency target α·t_ext as
// a deadline and doomed work is shed at block boundaries. With
// -drain-timeout, SIGINT/SIGTERM drains gracefully — no new requests are
// accepted, queued work runs to completion, and whatever remains when the
// timeout lapses is shed — so shutdown is bounded by the timeout. The
// -fault-* flags inject deterministic block-latency spikes and transient
// block failures for resilience testing.
//
// With -devices N > 1, the daemon schedules a fleet of N devices — one
// queue and hold timer per device — and routes each arrival with the
// -placement policy ("round-robin", "least-loaded" or "affinity").
//
// With -batch-max B > 1, the scheduler coalesces up to B same-model requests
// at the queue front into one batched block execution (§3.3's same-type runs
// executed as micro-batches). The default of 1 leaves batching off.
//
// With -record, every admitted arrival (and any later cancellation) is
// recorded in workload trace form and written to the given path on
// shutdown, so the live run can be re-simulated deterministically with
// splitexp replay or splitexp trace -replay.
//
// With -autoscale-max N > 0, the daemon runs an elastic fleet: N devices
// are provisioned but only [-autoscale-min, N] are actively placed, scaling
// on queue-depth and rolling-QoS watermarks with drain-then-release (the
// fixed -devices value is superseded). The live active count appears as
// split_fleet_active_devices and in /queuez. With -admit-mode, a front-door
// admission gate rejects work the fleet cannot absorb (token-bucket,
// queue-length or predicted-rr); rejections are typed ErrAdmissionRejected
// on the wire and count under split_drops_total{reason="admission"}.
//
// Command-line mistakes (-devices 0, -batch-max 0, an unknown -placement,
// inconsistent -autoscale-*/-admit-* combinations) exit with status 2 and a
// one-line error; runtime failures exit with 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"split/internal/core"
	"split/internal/engine"
	"split/internal/fleet"
	"split/internal/gpusim"
	"split/internal/model"
	"split/internal/obs"
	"split/internal/onnxlite"
	"split/internal/place"
	"split/internal/policy"
	"split/internal/sched"
	"split/internal/serve"
	"split/internal/trace"
	"split/internal/workload"
	"split/internal/zoo"
)

// usageError marks a command-line mistake — bad flag value, unknown policy —
// so main can exit with the conventional usage status 2 rather than the
// runtime-failure status 1.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

// usagef builds a usageError from a format string.
func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

func main() {
	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		close(stop)
	}()
	if err := run(os.Args[1:], os.Stdout, nil, nil, stop); err != nil {
		fmt.Fprintln(os.Stderr, "splitd:", err)
		var ue usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run starts the daemon and blocks until `stop` closes. If `ready` is
// non-nil, the bound RPC address is sent on it once the server is
// listening; likewise `adminReady` receives the bound admin address when
// -admin is set.
func run(args []string, out io.Writer, ready, adminReady chan<- string, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("splitd", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		addr       = fs.String("addr", "127.0.0.1:7100", "listen address")
		adminAddr  = fs.String("admin", "", "serve the observability endpoint (/metrics, /healthz, /queuez, /tracez, /spanz, /timeseriesz, /debug/pprof) on this address")
		plansDir   = fs.String("plans", "", "load plans from this directory (default: run the GA)")
		alpha      = fs.Float64("alpha", 4, "latency target multiplier α")
		timescale  = fs.Float64("timescale", 1.0, "wall-clock ms per simulated ms (e.g. 0.1 = 10x faster)")
		noElastic  = fs.Bool("no-elastic", false, "disable elastic splitting: zero both §3.3 thresholds, so split plans are always used")
		ringCap    = fs.Int("trace-ring", 4096, "flight-recorder capacity in events (with -admin)")
		qosWindow  = fs.Int("qos-window", 0, "rolling QoS window in completions (0 = default)")
		devices    = fs.Int("devices", 1, "fleet size: queues and hold timers, one per device")
		placement  = fs.String("placement", "", "fleet placement policy: round-robin|least-loaded|affinity (default round-robin)")
		batchMax   = fs.Int("batch-max", 1, "coalesce up to this many same-model requests into one batched block execution (1 = off)")
		partitions = fs.Int("partitions", 1, "spatial sharing: concurrent partition lanes per device (1 = the paper's temporal sharing, one slot per device)")
		partBeta   = fs.Float64("partition-beta", 0, "fractional-width efficiency exponent eff(f)=f^beta (0 = default)")
		partWidth  = fs.String("partition-width", "", "partition hold-width policy: fixed|adaptive (default adaptive)")
		record     = fs.String("record", "", "record admitted arrivals and write them as a workload trace to this path on shutdown")

		deadlines  = fs.Bool("deadlines", false, "enforce per-request deadlines of α·t_ext; shed doomed work at block boundaries")
		predictive = fs.Bool("predictive-shed", false, "with -deadlines, also shed requests that cannot finish in time even if not yet expired")
		drainTO    = fs.Duration("drain-timeout", 0, "drain gracefully on the first signal, shedding what remains after this long (0 = stop immediately)")

		asMax      = fs.Int("autoscale-max", 0, "enable the elastic fleet with this many provisioned devices (0 = fixed fleet)")
		asMin      = fs.Int("autoscale-min", 1, "minimum active devices with -autoscale-max")
		asEvalMs   = fs.Float64("autoscale-eval-ms", 0, "autoscaler evaluation throttle in ms (0 = default)")
		asDepth    = fs.Float64("autoscale-high-depth", 0, "scale-out watermark: waiting requests per active device (0 = default)")
		asViol     = fs.Float64("autoscale-high-viol", 0, "scale-out watermark: rolling viol@α rate (0 = default)")
		asIdleMs   = fs.Float64("autoscale-idle-ms", 0, "sustained-idle time before a device is drained and released (0 = default)")
		admitMode  = fs.String("admit-mode", "", "front-door admission gate: token-bucket|queue-length|predicted-rr (empty = off)")
		admitRate  = fs.Float64("admit-rate", 0, "token-bucket refill rate in req/s (with -admit-mode token-bucket)")
		admitBurst = fs.Int("admit-burst", 0, "token-bucket capacity (0 = derived from -admit-rate)")
		admitQueue = fs.Int("admit-max-queue", 0, "waiting-request cap (with -admit-mode queue-length)")
		admitRR    = fs.Float64("admit-max-rr", 0, "predicted response-ratio ceiling (with -admit-mode predicted-rr; 0 = α)")

		spikeProb   = fs.Float64("fault-spike-prob", 0, "per-block probability of a latency spike")
		spikeFactor = fs.Float64("fault-spike-factor", 3, "latency multiplier for spiked blocks")
		failProb    = fs.Float64("fault-fail-prob", 0, "per-block probability of a transient failure")
		faultRetry  = fs.Int("fault-retries", 1, "retries per block before the request is shed as a device fault")
		faultSeed   = fs.Int64("fault-seed", 1, "fault injector seed")
	)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	if *devices < 1 {
		return usagef("-devices must be >= 1, got %d", *devices)
	}
	if *batchMax < 1 {
		return usagef("-batch-max must be >= 1, got %d", *batchMax)
	}
	if *partitions < 1 {
		return usagef("-partitions must be >= 1, got %d", *partitions)
	}
	if *partBeta < 0 || *partBeta > 1 {
		return usagef("-partition-beta must be in [0, 1], got %v", *partBeta)
	}
	if *partitions > 1 {
		rr, err := place.New(place.RoundRobin, 1)
		if err != nil {
			return err
		}
		if _, err := place.NewSpatial(rr, *partitions, *partWidth); err != nil {
			return usageError{err}
		}
	}
	if _, err := place.New(*placement, *devices); err != nil {
		return usageError{err}
	}
	autoscale := fleet.AutoscaleConfig{
		Min:                *asMin,
		Max:                *asMax,
		EvalEveryMs:        *asEvalMs,
		HighDepthPerDevice: *asDepth,
		HighViolRate:       *asViol,
		IdleReleaseMs:      *asIdleMs,
	}
	if err := autoscale.Validate(); err != nil {
		return usageError{err}
	}
	admission := fleet.AdmissionConfig{
		Mode:           fleet.AdmissionMode(*admitMode),
		RatePerSec:     *admitRate,
		Burst:          *admitBurst,
		MaxQueue:       *admitQueue,
		MaxPredictedRR: *admitRR,
	}
	if err := admission.Validate(); err != nil {
		return usageError{err}
	}

	var plans map[string]*model.SplitPlan
	if *plansDir != "" {
		var err error
		plans, err = onnxlite.LoadPlanDir(*plansDir)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "loaded %d plans from %s\n", len(plans), *plansDir)
	} else {
		dep, err := core.DefaultPipeline().Deploy()
		if err != nil {
			return err
		}
		plans = dep.Plans
		fmt.Fprintf(out, "built %d plans with the GA\n", len(plans))
	}
	catalog := policy.NewCatalog(zoo.LoadBenchmarkSet(), plans)

	elastic := sched.DefaultElastic()
	if *noElastic {
		elastic = sched.Elastic{}
	}
	cfg := serve.Config{
		Knobs: engine.Knobs{
			Alpha:            *alpha,
			Elastic:          elastic,
			EnforceDeadlines: *deadlines,
			PredictiveShed:   *predictive,
			Devices:          *devices,
			Placement:        *placement,
			BatchMax:         *batchMax,
			Partitions:       *partitions,
			PartitionCost:    gpusim.PartitionCost{Beta: *partBeta},
			PartitionWidth:   *partWidth,
			Fleet:            autoscale,
			Admission:        admission,
		},
		Catalog:   catalog,
		TimeScale: *timescale,
		QoSWindow: *qosWindow,
	}
	if *batchMax > 1 {
		fmt.Fprintf(out, "micro-batching on: up to %d same-model requests per block\n", *batchMax)
	}
	if *partitions > 1 {
		width := *partWidth
		if width == "" {
			width = place.DefaultWidth
		}
		fmt.Fprintf(out, "spatial sharing on: %d partition lanes per device, %s width\n", *partitions, width)
	}
	var rec *workload.Recorder
	if *record != "" {
		rec = workload.NewRecorder()
		cfg.ArrivalRecorder = rec
		fmt.Fprintf(out, "recording arrivals to %s\n", *record)
	}
	if *spikeProb > 0 || *failProb > 0 {
		cfg.Faults = &gpusim.FaultInjector{
			Seed:        *faultSeed,
			SpikeProb:   *spikeProb,
			SpikeFactor: *spikeFactor,
			FailProb:    *failProb,
			MaxRetries:  *faultRetry,
		}
		fmt.Fprintf(out, "fault injection on: spike p=%.3f ×%.1f, fail p=%.3f, retries=%d\n",
			*spikeProb, *spikeFactor, *failProb, *faultRetry)
	}
	var (
		reg  *obs.Registry
		ring *trace.Ring
	)
	if *adminAddr != "" {
		reg = obs.NewRegistry()
		ring = trace.NewRing(*ringCap)
		cfg.Obs = reg
		cfg.Sink = ring
	}
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return err
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if err := srv.Start(l); err != nil {
		return err
	}

	var admin *http.Server
	if *adminAddr != "" {
		al, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			srv.Stop()
			return err
		}
		mux := obs.AdminConfig{
			Registry:   reg,
			Ring:       ring,
			Queuez:     func() any { return srv.QueueSnapshot() },
			Health:     func() any { return srv.Health() },
			TimeSeries: srv.TimeSeries,
		}.Mux()
		admin = &http.Server{Handler: mux}
		go admin.Serve(al)
		fmt.Fprintf(out, "splitd admin endpoint on http://%s\n", al.Addr())
		if adminReady != nil {
			adminReady <- al.Addr().String()
		}
	}

	fmt.Fprintf(out, "splitd serving %d models on %s (timescale %.2f, α=%.0f)\n",
		len(catalog), srv.Addr(), *timescale, *alpha)
	if *devices > 1 || autoscale.Enabled() {
		pol := *placement
		if pol == "" {
			pol = place.Default
		}
		if autoscale.Enabled() {
			fmt.Fprintf(out, "fleet: elastic %d..%d devices, %s placement\n",
				max(*asMin, 1), *asMax, pol)
		} else {
			fmt.Fprintf(out, "fleet: %d devices, %s placement\n", *devices, pol)
		}
	}
	if admission.Enabled() {
		fmt.Fprintf(out, "admission gate on: %s\n", admission.Mode)
	}
	if ready != nil {
		ready <- srv.Addr()
	}

	<-stop
	if *drainTO > 0 {
		fmt.Fprintf(out, "draining (timeout %s)\n", *drainTO)
		if shed := srv.Drain(*drainTO); shed > 0 {
			fmt.Fprintf(out, "drain timeout: shed %d queued requests\n", shed)
		} else {
			fmt.Fprintln(out, "drained cleanly")
		}
	} else {
		fmt.Fprintln(out, "shutting down")
	}
	if admin != nil {
		admin.Close()
	}
	srv.Stop()
	if rec != nil {
		if err := writeRecordedTrace(*record, rec); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d recorded arrivals to %s\n", rec.Len(), *record)
	}
	return nil
}

// writeRecordedTrace persists the recorded run after the server has fully
// stopped, so no arrival or cancellation races the write.
func writeRecordedTrace(path string, rec *workload.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace file: %w", err)
	}
	if err := rec.Encode(f); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing trace file: %w", err)
	}
	return nil
}
