package main

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

// workloads is the benchmark's workload list, in running order.
// BENCHMARK.json repeats the names and reasons; main_test.go keeps the two
// in step.
var workloads = []workloadDef{
	{
		name: "sim_cohort_1m", kind: "batch", exactQoS: true,
		why: "one plain million-arrival simulator run: set-up, the event heap and request allocation dominate; features and tracing do nothing",
		setup: func(e *env) (runner, error) {
			return asRunner(setupCohort(e, scaled(cohortArrivals, e.scale, 1000), false))
		},
	},
	{
		name: "sim_paper_grid", kind: "batch", exactQoS: true,
		why:   "the paper's evaluation as 960 runs of 1000 requests: per-run set-up, trace generation, the baselines and metrics dominate, the heap stays shallow",
		setup: func(e *env) (runner, error) { return asRunner(setupGrid(e)) },
	},
	{
		name: "sim_features", kind: "batch", exactQoS: true,
		why: "batching, partitions, autoscaler, admission, deadlines, cancels and faults all on: the planner and control plane do the work they skip elsewhere",
		setup: func(e *env) (runner, error) {
			return asRunner(setupCohort(e, scaled(featuresArrivals, e.scale, 1000), true))
		},
	},
	{
		name: "serve_saturate_tiny", kind: "closed loop",
		why:   "64 callers against a live server whose service time is about zero: RPC coding, the server mutex, Algorithm 1 at depth 64 and delivery are the bottleneck",
		setup: func(e *env) (runner, error) { return asRunner(setupTiny(e, senders())) },
	},
	{
		name: "serve_open_zoo", kind: "open loop",
		why:   "a Poisson schedule at 0.75 of capacity builds real per-device queues, so preemption order, hold precision and grant lag decide the paper's QoS numbers",
		setup: func(e *env) (runner, error) { return asRunner(setupZoo(e, scaled(zooArrivals, e.scale, 100))) },
	},
}

// asRunner hands a workload's concrete set-up to the harness; a failed
// set-up becomes a nil runner, never a typed nil inside one.
func asRunner[R runner](r R, err error) (runner, error) {
	if err != nil {
		return nil, err
	}
	return r, nil
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// endToEnd declares one end-to-end metric: what a user of the system sees.
// bound is the share of the parent's median by which the metric may get
// worse before a change is rejected.
type endToEnd struct {
	name   string
	unit   string
	better string
	bound  float64
	what   string
}

// endToEndMetrics is reported, in full, by the untraced run of every
// workload. Latencies and ratios are in the workload's own clock: simulated
// time on the sim_* workloads, wall time at the client on the serve_* ones.
var endToEndMetrics = []endToEnd{
	{"setup_s", "s", "lower", 0.25, "deploy, generate or read the trace, start the server, dial: median of 3 to 31 set-ups"},
	{"req_per_s", "1/s", "higher", 0.25, "sim_*: requests simulated per host second; serve_*: requests completed OK per wall second"},
	{"allocs_per_req", "count", "lower", 0.02, "heap allocations of the timed call per request (on serve_* the in-process clients' included)"},
	{"bytes_per_req", "B", "lower", 0.02, "bytes allocated by the timed call per request"},
	{"peak_rss_mb", "MB", "lower", 0.15, "VmHWM of the workload's process"},
	{"rr_p50", "ratio", "lower", 0.15, "median response ratio: end-to-end latency over the isolated execution time t_ext"},
	{"rr_p99", "ratio", "lower", 0.25, "99th percentile of the same"},
	{"ok_at_4", "frac", "higher", 0.05, "share of judged requests served with RR <= 4: 1 - viol@4, anything not served misses"},
	{"served_frac", "frac", "higher", 0.02, "served over attempted: 1 - fail_frac"},
	{"jitter_short_ms", "ms", "lower", 0.25, "mean over the short models of the standard deviation of their latency (Figure 7)"},
}

// perLayer declares the ladder: every metric the traced run reports, each
// with the end-to-end metric and workload it is expected to move.
var perLayer = []layerMetric{
	// workload
	{"workload.gen_ns_per_arrival", "ns", "lower", "setup_s on sim_cohort_1m only"},
	{"workload.gen_small_ns_per_arrival", "ns", "lower", "req_per_s on sim_paper_grid, which generates inside the timed call"},
	{"workload.trace_write_ns_per_arrival", "ns", "lower", "setup_s on serve_open_zoo"},
	{"workload.trace_read_ns_per_arrival", "ns", "lower", "setup_s on serve_open_zoo"},
	// gpusim
	{"gpusim.preload_event_ns", "ns", "lower", "req_per_s, bytes_per_req, peak_rss_mb on sim_cohort_1m; about nil on sim_paper_grid"},
	{"gpusim.chain_event_ns", "ns", "lower", "req_per_s on every sim_* workload once arrivals are fed from a cursor"},
	{"gpusim.device_hold_ns", "ns", "lower", "req_per_s on every sim_* workload"},
	{"gpusim.partition_hold_ns", "ns", "lower", "req_per_s on sim_features only"},
	{"gpusim.fault_draw_ns", "ns", "lower", "req_per_s on sim_features only"},
	// sched
	{"sched.new_request_ns", "ns", "lower", "req_per_s on sim_cohort_1m"},
	{"sched.new_request_allocs", "count", "lower", "allocs_per_req on sim_cohort_1m"},
	{"sched.insert_ns.d4", "ns", "lower", "req_per_s on every sim_* workload"},
	{"sched.insert_ns.d64", "ns", "lower", "req_per_s and rr_p99 on serve_saturate_tiny"},
	{"sched.insert_ns.d1024", "ns", "lower", "nothing today: an overload guard"},
	{"sched.pop_front_ns", "ns", "lower", "req_per_s on all workloads"},
	{"sched.should_split_ns", "ns", "lower", "req_per_s on all workloads"},
	{"sched.sweep_expired_ns.d64", "ns", "lower", "req_per_s on sim_features only"},
	{"sched.remove_ns.d64", "ns", "lower", "req_per_s on sim_features only"},
	{"sched.form_batch_ns.d64", "ns", "lower", "req_per_s on sim_features only"},
	// place
	{"place.place_ns.round-robin.l16", "ns", "lower", "nothing measurable: under 1% of a serve_open_zoo request"},
	{"place.place_ns.least-loaded.l16", "ns", "lower", "req_per_s on sim_cohort_1m and serve_saturate_tiny"},
	{"place.place_ns.affinity.l16", "ns", "lower", "no workload uses affinity placement"},
	{"place.spatial_decide_ns.l16", "ns", "lower", "req_per_s on sim_features"},
	// fleet
	{"fleet.admit_ns.token-bucket", "ns", "lower", "req_per_s on sim_features only"},
	{"fleet.admit_ns.predicted-rr", "ns", "lower", "no workload uses predicted-rr admission"},
	{"fleet.autoscale_eval_ns", "ns", "lower", "req_per_s on sim_features only"},
	{"fleet.window_observe_ns", "ns", "lower", "req_per_s on sim_features only"},
	// policy
	{"policy.run_ns_per_req.split", "ns", "lower", "req_per_s on sim_paper_grid"},
	{"policy.run_ns_per_req.clockwork", "ns", "lower", "req_per_s on sim_paper_grid"},
	{"policy.run_ns_per_req.prema", "ns", "lower", "req_per_s on sim_paper_grid"},
	{"policy.run_ns_per_req.rta", "ns", "lower", "req_per_s on sim_paper_grid"},
	{"policy.setup_ns_per_run", "ns", "lower", "req_per_s on sim_paper_grid (960 runs per pass)"},
	{"policy.traced_over_untraced", "ratio", "lower", "policy.traced_req_per_s; no end-to-end metric runs the product tracer"},
	{"policy.traced_req_per_s", "1/s", "higher", "the cost of -trace on the simulator CLIs; no end-to-end metric"},
	{"policy.events_per_req", "count", "lower", "policy.traced_req_per_s (exact for a seed)"},
	{"policy.preemptions_per_req", "count", "lower", "ok_at_4 and jitter_short_ms on sim_features (exact for a seed)"},
	{"policy.batched_frac", "frac", "higher", "req_per_s on sim_features (exact for a seed)"},
	{"policy.shed_frac.deadline", "frac", "lower", "served_frac and ok_at_4 on sim_features (exact for a seed)"},
	{"policy.shed_frac.canceled", "frac", "lower", "served_frac on sim_features (exact for a seed)"},
	{"policy.shed_frac.admission", "frac", "lower", "served_frac on sim_features (exact for a seed)"},
	{"policy.shed_frac.device_fault", "frac", "lower", "served_frac on sim_features (exact for a seed)"},
	// metrics
	{"metrics.summarize_ns_per_rec", "ns", "lower", "req_per_s on sim_paper_grid"},
	// trace
	{"trace.record_ns_per_event", "ns", "lower", "policy.traced_req_per_s"},
	{"trace.build_spans_ns_per_event", "ns", "lower", "policy.traced_req_per_s"},
	{"trace.jsonl_ns_per_event", "ns", "lower", "the cost of writing a trace; no end-to-end metric"},
	{"trace.perfetto_ns_per_event", "ns", "lower", "the cost of writing a trace; no end-to-end metric"},
	{"trace.ring_emit_ns", "ns", "lower", "nothing measurable on serve_open_zoo, whose server has a ring sink"},
	{"trace.summary_ns_per_req.n2000", "ns", "lower", "nothing: with n8000 it puts SpanTree.Summary's quadratic on file"},
	{"trace.summary_ns_per_req.n8000", "ns", "lower", "nothing: four times n2000 while Summary concatenates with +="},
	// obs
	{"obs.counter_ns", "ns", "lower", "obs.serve_overhead_frac"},
	{"obs.histogram_ns", "ns", "lower", "obs.serve_overhead_frac"},
	{"obs.qos_observe_ns", "ns", "lower", "req_per_s on serve_saturate_tiny (always on in the server)"},
	{"obs.timeseries_observe_ns", "ns", "lower", "req_per_s on serve_saturate_tiny (always on in the server)"},
	{"obs.expose_ms", "ms", "lower", "a /metrics scrape; no end-to-end metric"},
	{"obs.serve_overhead_frac", "frac", "lower", "the gap between an instrumented and a plain server at saturation; budget 5%"},
	// serve
	{"serve.start_ms", "ms", "lower", "setup_s on serve_*"},
	{"serve.dial_ms", "ms", "lower", "setup_s on serve_*"},
	{"serve.stats_rtt_us", "us", "lower", "the RPC and lock floor under every other serve number"},
	{"serve.infer_rtt_us", "us", "lower", "req_per_s, rr_p50, rr_p99 on serve_saturate_tiny; nil on serve_open_zoo"},
	{"serve.submit_rtt_us", "us", "lower", "as serve.infer_rtt_us"},
	{"serve.wait_rtt_us", "us", "lower", "as serve.infer_rtt_us"},
	{"serve.cancel_rtt_us", "us", "lower", "no workload cancels on the live path"},
	{"serve.sched_share", "frac", "lower", "how much of an idle Infer a scheduler change can reach at all"},
	{"serve.rps.w1", "1/s", "higher", "the t_ext under rr_p50 on serve_saturate_tiny: one caller, nothing queues"},
	{"serve.rps.w8", "1/s", "higher", "req_per_s on serve_saturate_tiny"},
	{"serve.rps.w64", "1/s", "higher", "req_per_s on serve_saturate_tiny: the same point"},
	{"serve.rr_idle_p50", "ratio", "lower", "rr_p50, rr_p99, ok_at_4 on serve_open_zoo, amplified by queueing at 0.75 load"},
	{"serve.client_minus_server_ms_p50", "ms", "lower", "rr_p50 on serve_open_zoo, by less than 1%"},
	{"serve.sim_gap_rr_p50", "ratio", "lower", "rr_p50 on serve_open_zoo: 1 would mean the live path adds nothing"},
	{"serve.queue_depth_mean", "count", "lower", "rr_p99 and ok_at_4 on serve_open_zoo"},
	{"serve.busy_frac_mean", "frac", "lower", "rr_p50 on serve_open_zoo: 0.75 by construction plus hold overshoot"},
	{"serve.preemptions_per_req", "count", "lower", "jitter_short_ms on serve_open_zoo"},
	{"serve.jitter_short_ms", "ms", "lower", "jitter_short_ms on serve_open_zoo: the same number on a shorter pass"},
	{"serve.drain_ms", "ms", "lower", "nothing timed: shutdown"},
	{"serve.goroutines_peak", "count", "lower", "peak_rss_mb on serve_*"},
	// offline: set-up only
	{"zoo.load_all_ms", "ms", "lower", "setup_s on every workload that deploys"},
	{"profiler.new_ms.gpt2", "ms", "lower", "setup_s, only if gpt2 is ever split"},
	{"profiler.evaluate_ns", "ns", "lower", "ga.run_ms.*"},
	{"ga.run_ms.vgg19_m3", "ms", "lower", "setup_s on every workload that deploys"},
	{"ga.run_ms.gpt2_m4", "ms", "lower", "nothing today: gpt2 runs unsplit"},
	{"ga.best_std_ms.vgg19_m3", "ms", "lower", "jitter_short_ms and ok_at_4 wherever vgg19 is split (exact for a seed)"},
	{"onnxlite.plan_roundtrip_us", "us", "lower", "splitd start-up with -plans; no workload"},
	{"core.deploy_ms", "ms", "lower", "setup_s on every workload that deploys"},
	{"core.capacity_search_ms", "ms", "lower", "capacity planning; no workload"},
	{"core.capacity_evals", "count", "lower", "core.capacity_search_ms"},
	// harness and process
	{"loadgen.late_p50_ms", "ms", "lower", "rr_p50 on serve_open_zoo: latency is measured from the due time, so it contains this"},
	{"loadgen.late_p99_ms", "ms", "lower", "above 5 ms the pass is printed disturbed: the host stalled the sender"},
	{"proc.gc_pause_total_ms", "ms", "lower", "rr_p99 on serve_*; req_per_s on sim_*"},
	{"proc.gc_cycles", "count", "lower", "req_per_s wherever bytes_per_req is high"},
	{"harness.trace_overhead_frac", "frac", "lower", "nothing: end-to-end metrics come from the untraced run"},
}
