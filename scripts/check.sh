#!/usr/bin/env bash
# Tier-1 gate: formatting (including simplifications), vet, the project's
# own static-analysis suite (splitlint), build, and the full test suite
# under the race detector. Run before every commit (`make check`).
set -euo pipefail
cd "$(dirname "$0")/.."

unformatted=$(gofmt -s -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt -s needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go build ./...
go run ./cmd/splitlint ./...
go test -race -shuffle on ./...

# Brief fuzz smoke past the seed corpora; CI runs the same targets longer.
for target in FuzzInsertGreedy FuzzQueueLifecycle FuzzDeadlineSweep FuzzBatchPlanner; do
    go test ./internal/sched -run '^$' -fuzz "$target" -fuzztime "${FUZZTIME:-2s}"
done
go test ./internal/policy -run '^$' -fuzz FuzzPlacement -fuzztime "${FUZZTIME:-2s}"
go test ./internal/trace -run '^$' -fuzz FuzzSpanBuilder -fuzztime "${FUZZTIME:-2s}"
go test ./internal/workload -run '^$' -fuzz FuzzWorkloadTrace -fuzztime "${FUZZTIME:-2s}"
go test ./internal/fleet -run '^$' -fuzz FuzzAdmission -fuzztime "${FUZZTIME:-2s}"
go test ./internal/gpusim -run '^$' -fuzz FuzzPartitionTimeline -fuzztime "${FUZZTIME:-2s}"
echo "check: ok"
