# Development entry points. `make check` is the tier-1 gate CI runs.

COUNT ?= 1
BENCH ?= .

.PHONY: check test lint bench profile profile-diff fmt

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
# (the default), the simulator's scale point: eight replays of one million-
# arrival trace generated before the timer, so the profile holds what
# splitperf's sim_cohort_1m times and nothing else; any other, such as
# ServeRPC (the saturated serving rung), ScenarioAllSystems (one seed of the
# paper's evaluation grid), TracedFeatures (sim_features' traced run and
# span fold) or Deploy (the offline half: zoo, profiler, GA, catalog, what
# sim_paper_grid's setup_s times), for five seconds. Leaves cpu.out, mem.out and
# split.test (git-ignored) for `go tool pprof -peek`, `-list` and `-diff_base`
# against another commit's.
PROFILE ?= MillionRequestSweep
PROFILE_TIME = $(if $(filter MillionRequestSweep,$(PROFILE)),8x,5s)
# profile_run runs the PROFILE benchmark for the -benchtime $(1), profiled.
profile_run = go test -run '^$$' -bench '^Benchmark$(PROFILE)$$' -benchtime $(1) -cpuprofile cpu.out -memprofile mem.out .

profile:
	$(call profile_run,$(PROFILE_TIME))
	go tool pprof -top -nodecount 30 split.test cpu.out
	go tool pprof -top -nodecount 15 -sample_index alloc_space split.test mem.out

# The before/after profile diff of a speed-up: `make profile-diff BASE=<rev>`
# extracts BASE (any git revision) into a temporary directory, profiles the
# same PROFILE benchmark there and here, and prints this tree's cpu and
# alloc_space profiles with BASE's subtracted (`pprof -diff_base`; negative
# is less). Both sides run the same number of iterations — the count BASE
# reaches in the benchmark's usual five seconds, or MillionRequestSweep's
# eight — so alloc_space totals compare per operation. BASE's profiles stay
# as base.cpu.out and base.mem.out beside this tree's cpu.out and mem.out,
# all git-ignored, for -peek and -list.
BASE ?= HEAD

profile-diff:
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
		git archive --format=tar $(BASE) | tar -x -C "$$tmp" && \
		n=$(PROFILE_TIME) && \
		if [ "$${n%x}" = "$$n" ]; then \
			(cd "$$tmp" && go test -run '^$$' -bench '^Benchmark$(PROFILE)$$' -benchtime "$$n" .) >"$$tmp/count.txt" && \
			n=$$(awk '/^Benchmark/ { print $$2 "x" }' "$$tmp/count.txt"); \
		fi && \
		(cd "$$tmp" && $(call profile_run,$$n)) && \
		cp "$$tmp/cpu.out" base.cpu.out && cp "$$tmp/mem.out" base.mem.out && \
		$(call profile_run,$$n)
	go tool pprof -top -nodecount 30 -diff_base base.cpu.out split.test cpu.out
	go tool pprof -top -nodecount 15 -sample_index alloc_space -diff_base base.mem.out split.test mem.out

fmt:
	gofmt -w .
