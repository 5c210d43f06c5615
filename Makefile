# Development entry points. `make check` is the tier-1 gate CI runs.

COUNT ?= 1
BENCH ?= .

.PHONY: check test lint bench profile fmt

check:
	./scripts/check.sh

test:
	go test ./...

# Project-native static analysis (see internal/lint): determinism,
# time-unit, error-wrapping, and lock-discipline rules.
lint:
	go run ./cmd/splitlint ./...

# Benchstat-compatible output: run with COUNT=10 and feed two bench.out
# files from different commits to `benchstat old.out new.out`. Then the
# repository's benchmark (cmd/splitperf, declared in BENCHMARK.json): five
# workloads, each reporting its end-to-end metrics.
bench:
	go test -run '^$$' -bench '$(BENCH)' -benchmem -count $(COUNT) . ./internal/... | tee bench.out
	go run ./cmd/splitperf

# CPU and allocation profiles of one root benchmark: PROFILE=MillionRequestSweep
# (the default), the simulator's scale point, three sweeps; any other, such as
# ServeRPC (the saturated serving rung), ScenarioAllSystems (one seed of the
# paper's evaluation grid) or TracedFeatures (sim_features' traced run and
# span fold), for five seconds. Leaves cpu.out, mem.out and
# split.test (git-ignored) for `go tool pprof -peek`, `-list` and `-diff_base`
# against another commit's.
PROFILE ?= MillionRequestSweep

profile:
	go test -run '^$$' -bench '^Benchmark$(PROFILE)$$' -benchtime $(if $(filter MillionRequestSweep,$(PROFILE)),3x,5s) -cpuprofile cpu.out -memprofile mem.out .
	go tool pprof -top -nodecount 30 split.test cpu.out
	go tool pprof -top -nodecount 15 -sample_index alloc_space split.test mem.out

fmt:
	gofmt -w .
