#!/bin/sh
# Fast correctness gate for CI and pre-commit:
#   1. go vet      — static checks
#   2. go build    — everything compiles
#   3. dupcheck    — no >40-line cross-file clones in the fabric packages
#      (internal/{core,rdma,session} must share the session engine,
#      not carry private copies of it, and internal/dial, the one place
#      that names a binding, must not grow one; internal/nvme holds protocol
#      structures only, no queue state — the CID slot table is the
#      session engine's); also prints the LoC report
#   4. go test -race — full suite under the race detector (the sim engine
#      runs procs one at a time, but coroutine switches, the bench tooling and the
#      shared-memory atomics still get exercised); this includes the
#      replicated-namespace chaos suite (internal/integration
#      TestClusterChaos*) and the replication scaling gate
#      (internal/exp TestClusterReadScalingAtFourTargets)
#
# Any arguments are passed through to `go test`; `scripts/verify.sh -short`
# skips the slow figure/experiment sweeps (used on PRs, where a separate
# full run still covers them on main).
set -e
cd "$(dirname "$0")/.."

echo "== vet =="
go vet ./...

echo "== build =="
go build ./...

echo "== dupcheck =="
go run ./cmd/dupcheck

echo "== test (race) =="
go test -race "$@" ./...

echo "verify: OK"
