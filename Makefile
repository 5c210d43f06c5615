# Development entry points. `make check` is the tier-1 gate CI runs.

COUNT ?= 1
BENCH ?= .

.PHONY: check test lint bench fmt

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

fmt:
	gofmt -w .
