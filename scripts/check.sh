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
# The grid's runs share the cores: check the inline path (one CPU) and an
# oversubscribed one (four) under the race detector, several times over.
go test -race -count=3 -cpu 1,4 -run 'RunAllScenarios|RunConcurrently|Each|MultiSeed' ./internal/core ./internal/policy
# A lane's next fire can overlap its previous delivery (an arrival may grant
# the idle lane in between); holds shorter than the kernel timer's cut-off
# each fire on a goroutine of their own, the others on the wall clock's one
# timer goroutine, which Stop and Drain shut down; and a /metrics scrape
# reads every gauge from a goroutine of its own. State read outside the
# server mutex races only with several lanes running.
go test -race -count=3 -cpu 1,4 -run 'ManyConcurrentRequestsAllComplete|FleetCancelRoutesAcrossDevices|ServePartitionConcurrency|ServeBatchingCoalesces|ServeElasticConcurrentScaleDown|IdleArrivalStartsAtArrival|StartRunsNoGoroutinePerLane|ScrapeWhileServing|WallTimerContract|ShutdownReleasesTimer' ./internal/serve
# Off Linux every hold takes the runtime timer: keep that path compiling,
# tests included.
GOOS=darwin GOARCH=arm64 go vet ./internal/serve ./cmd/splitd
GOOS=windows go vet ./internal/serve ./cmd/splitd

# Brief fuzz smoke past the seed corpora. The targets are discovered, not
# listed: every Fuzz function in the module runs for FUZZTIME (CI sets 10s),
# so a new target needs no edit here or in ci.yml.
go test -list '^Fuzz' ./... |
    awk '/^Fuzz/ { t[n++] = $1 } /^ok/ { for (i = 0; i < n; i++) print $2, t[i]; n = 0 }' |
    while read -r pkg target; do
        go test "$pkg" -run '^$' -fuzz "^$target\$" -fuzztime "${FUZZTIME:-2s}" </dev/null
    done
echo "check: ok"
