#!/usr/bin/env bash
# Checks of the benchmark's own code: formatting, vet, tests, a -quick run of
# all five workloads, and the -diff gate on two -quick results of one commit
# (every deterministic metric must come out unchanged). Ready to be wired into
# .github/workflows/ci.yml by a later issue; that file is outside bench/.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build/ci"
mkdir -p "$out"
cd "$root/bench"

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt -l bench/ is not empty:" >&2
	echo "$unformatted" >&2
	exit 1
fi
go vet ./...
go test ./...
go build -o "$out/oafbench" ./oafbench

cd "$root"
"$out/oafbench" -quick -out "$out/a.json" >/dev/null
"$out/oafbench" -quick -out "$out/b.json" >/dev/null
"$out/oafbench" -diff "$out/a.json" "$out/b.json" | tee "$out/diff.txt"
if grep -E '^[a-z0-9_]+ +(sim_[a-z0-9_]+|allocs_per_io) ' "$out/diff.txt" | grep -q regressed; then
	echo "a deterministic metric differs between two runs of one commit" >&2
	exit 1
fi
echo "bench/ci.sh: ok"
