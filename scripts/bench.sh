#!/bin/sh
# Benchmark sweep: run a small fabric matrix through oafperf -stats-json
# (perf numbers, fabric telemetry, pool stats), a cache on/off pair on
# the Zipfian hot-set workload, a replication scaling sweep (the 4 KiB
# randread namespace sharded over 1, 2, and 4 member targets, plus a
# 4-target run with a mid-run member crash), a ring-vs-futures sweep
# (the 4 KiB randread workload driven through the future-based API and
# the SQ/CQ ring fast path at QD 64 and 256 on tcp-25g), an rdma
# fast-path sweep (4 KiB randread on rdma-ib56: regcache on/off x merge
# on/off at QD 16 and 64, dynamic doorbells riding with the full fast
# path), an online self-tuning sweep (the 4 KiB randread workload from
# the worst static batch config: static-bad vs tuned vs hand-swept
# static best, plus a tuned run with a mid-window 128K-seq flip), then
# the batching and ring wall-clock benchmarks
# (`go test -bench QD`), and
# collect everything into one JSON report. The bench section records,
# per configuration, the simulator's own wall-clock ns/op and allocs/op
# next to the simulated GB/s and IOPS it achieved, so allocation
# regressions on the batched and ring hot paths show up in CI artifacts.
#
# Environment knobs (all optional):
#   BENCH_OUT      output file            (default BENCH_pr10.json)
#   BENCH_DURATION measured window        (default 500ms; CI smoke: 50ms)
#   BENCH_QD       queue depth            (default 64)
#   BENCH_SIZE     I/O size               (default 128K)
#   BENCH_BATCH    coalescing depth       (default 16)
#   BENCH_QUEUES   queue pairs per stream (default 4)
#   BENCH_FABRICS  fabrics to sweep       (default "nvme-oaf tcp-25g")
#   BENCH_ZIPF     hot-set skew for the cache pair (default 0.99)
#   BENCH_CACHE    cache size for the cache pair   (default 256M; empty skips)
#   BENCH_CLUSTER  non-empty sweeps replication scaling (default on; empty skips)
#   BENCH_RING     non-empty sweeps ring vs futures (default on; empty skips)
#   BENCH_RDMA     non-empty sweeps the rdma fast path (default on; empty skips)
#   BENCH_TUNE     non-empty sweeps the online self-tuner (default on; empty skips)
#   BENCH_TENANTS  non-empty sweeps per-tenant QoS (default on; empty skips)
#   BENCH_TUNE_DURATION window for the tuner runs (default 2s; the flip fires at 1s)
#   BENCH_GOBENCH  benchtime for go test  (default 3x; empty skips)
set -e
cd "$(dirname "$0")/.."

OUT=${BENCH_OUT:-BENCH_pr10.json}
DUR=${BENCH_DURATION:-500ms}
QD=${BENCH_QD:-64}
SIZE=${BENCH_SIZE:-128K}
BATCH=${BENCH_BATCH:-16}
QUEUES=${BENCH_QUEUES:-4}
FABRICS=${BENCH_FABRICS:-"nvme-oaf tcp-25g"}
ZIPF=${BENCH_ZIPF:-0.99}
CACHE=${BENCH_CACHE:-256M}
CLUSTER=${BENCH_CLUSTER:-on}
RING=${BENCH_RING:-on}
RDMA=${BENCH_RDMA:-on}
TUNE=${BENCH_TUNE:-on}
TENANTS=${BENCH_TENANTS:-on}
TUNE_DUR=${BENCH_TUNE_DURATION:-2s}
GOBENCH=${BENCH_GOBENCH:-3x}

TMP=$(mktemp -d)
BIN=$TMP/oafperf
trap 'rm -rf "$TMP"' EXIT
go build -o "$BIN" ./cmd/oafperf

# go_bench runs the QD-series batching and ring benchmarks and rewrites
# the standard `go test -bench` lines into JSON objects with ns/op,
# allocs/op, and the reported sim-GB/s / sim-IOPS metrics.
go_bench() {
	go test ./internal/exp/ -run 'NO_TESTS' -bench 'BenchmarkQD' \
		-benchtime "$GOBENCH" 2>/dev/null |
		awk '
		/^BenchmarkQD/ {
			name = $1; sub(/-[0-9]+$/, "", name)
			ns = ""; allocs = ""; gbps = ""; iops = ""
			for (i = 2; i < NF; i++) {
				if ($(i+1) == "ns/op") ns = $i
				if ($(i+1) == "allocs/op") allocs = $i
				if ($(i+1) == "sim-GB/s") gbps = $i
				if ($(i+1) == "sim-IOPS") iops = $i
			}
			if (n++) printf ",\n"
			printf "    {\"name\": \"%s\", \"wall_ns_per_op\": %s, \"allocs_per_op\": %s, \"sim_gbps\": %s, \"sim_iops\": %s}", \
				name, ns, allocs ? allocs : 0, gbps ? gbps : 0, iops ? iops : 0
		}
		END { printf "\n" }'
}

{
	printf '{\n'
	printf '  "bench": "batching-sweep",\n'
	printf '  "duration": "%s",\n' "$DUR"
	printf '  "runs": [\n'
	first=1
	for fab in $FABRICS; do
		for rw in read write; do
			[ $first -eq 1 ] || printf ',\n'
			first=0
			"$BIN" -fabric "$fab" -rw "$rw" -size "$SIZE" -qd "$QD" -t "$DUR" -stats-json
			printf ',\n'
			"$BIN" -fabric "$fab" -rw "$rw" -size "$SIZE" -qd "$QD" -t "$DUR" \
				-batch "$BATCH" -queues "$QUEUES" -stats-json
		done
	done
	# Cache pair: the Zipfian hot-set read workload with and without the
	# target-side cache, same batching/striping, so the report records the
	# cache gain next to the fabric matrix.
	if [ -n "$CACHE" ]; then
		printf ',\n'
		"$BIN" -fabric nvme-oaf -rw randread -size 4K -qd "$QD" -t "$DUR" \
			-zipf "$ZIPF" -batch "$BATCH" -queues "$QUEUES" -stats-json
		printf ',\n'
		"$BIN" -fabric nvme-oaf -rw randread -size 4K -qd "$QD" -t "$DUR" \
			-zipf "$ZIPF" -batch "$BATCH" -queues "$QUEUES" \
			-cache "$CACHE" -cache-mode wb -stats-json
	fi
	# Replication scaling: the same 4 KiB randread workload routed
	# through the sharded+replicated namespace layer as the member count
	# grows, then the 4-target geometry again with one member crashed
	# mid-window (failover + re-replication visible in the cluster and
	# fault sections of the run).
	if [ -n "$CLUSTER" ]; then
		for geo in "1 1" "2 2" "4 2"; do
			set -- $geo
			printf ',\n'
			"$BIN" -fabric tcp-25g -rw randread -size 4K -qd "$QD" -t "$DUR" \
				-targets "$1" -replicas "$2" -stats-json
		done
		printf ',\n'
		"$BIN" -fabric tcp-25g -rw randread -size 4K -qd "$QD" -t "$DUR" \
			-targets 4 -replicas 2 -crash-member 1 \
			-crash-at 20ms -crash-down 10ms -stats-json
	fi
	# Ring vs futures: the same 4 KiB randread workload at QD 64 and 256
	# on tcp-25g, once through the future-based Submit API and once
	# through the SQ/CQ ring fast path (which drains in batch-capsule
	# trains), so the report records the ring's IOPS advantage per depth.
	if [ -n "$RING" ]; then
		for rqd in 64 256; do
			printf ',\n'
			"$BIN" -fabric tcp-25g -rw randread -size 4K -qd "$rqd" -t "$DUR" \
				-stats-json
			printf ',\n'
			"$BIN" -fabric tcp-25g -rw randread -size 4K -qd "$rqd" -t "$DUR" \
				-ring -batch "$BATCH" -stats-json
		done
	fi
	# RDMA fast path: the 4 KiB randread workload on rdma-ib56 with batched
	# doorbells, sweeping regcache on/off x merge on/off at QD 16 and 64.
	# The all-on runs add dynamic doorbell coalescing, so the report shows
	# each mechanism's tail contribution (p99.9/p99.99 vs the legacy model)
	# at both depths.
	if [ -n "$RDMA" ]; then
		for rqd in 16 64; do
			for fp in "" "-rdma-regcache" "-rdma-merge" "-rdma-regcache -rdma-merge -rdma-dyndb"; do
				printf ',\n'
				# shellcheck disable=SC2086
				"$BIN" -fabric rdma-ib56 -rw randread -size 4K -qd "$rqd" \
					-t "$DUR" -batch 8 $fp -stats-json
			done
		done
	fi
	# Online self-tuning: the 4 KiB randread workload on tcp-25g started
	# from the worst static configuration (batch 1), once left static,
	# once with the live tuner attached (same bad start), and once at the
	# hand-swept static best — so the report shows how much of the
	# hand-tuned gap the tuner closes without a reconnect. The last run
	# flips to 128K sequential mid-window and records the phase reset.
	if [ -n "$TUNE" ]; then
		printf ',\n'
		"$BIN" -fabric tcp-25g -rw randread -size 4K -qd "$QD" -t "$TUNE_DUR" \
			-batch 1 -drv-batch 32 -stats-json
		printf ',\n'
		"$BIN" -fabric tcp-25g -rw randread -size 4K -qd "$QD" -t "$TUNE_DUR" \
			-batch 1 -drv-batch 32 -tune -stats-json
		printf ',\n'
		"$BIN" -fabric tcp-25g -rw randread -size 4K -qd "$QD" -t "$TUNE_DUR" \
			-batch 16 -drv-batch 32 -stats-json
		printf ',\n'
		"$BIN" -fabric tcp-25g -rw randread -size 4K -qd "$QD" -t "$TUNE_DUR" \
			-batch 1 -drv-batch 32 -tune \
			-flip-at 1s -flip-rw read -flip-size 128K -stats-json
	fi
	# Per-tenant QoS: a polite latency-sensitive tenant sharing the
	# tcp-25g fabric with a greedy throughput tenant (streams assigned
	# round-robin), swept from no tenancy at all, through attribution
	# only (tenants named, nobody shaped), to the greedy tenant capped —
	# so the report records the polite tenant's p99 and the token
	# borrow/lend ledger at each step, with and without SLO steering.
	if [ -n "$TENANTS" ]; then
		printf ',\n'
		"$BIN" -fabric tcp-25g -rw randread -size 8K -qd 32 -streams 4 \
			-t "$DUR" -stats-json
		for slo in "none,none" "latency,throughput"; do
			printf ',\n'
			"$BIN" -fabric tcp-25g -rw randread -size 8K -qd 32 -streams 4 \
				-t "$DUR" -tenants polite,greedy -slo "$slo" -stats-json
			printf ',\n'
			"$BIN" -fabric tcp-25g -rw randread -size 8K -qd 32 -streams 4 \
				-t "$DUR" -tenants polite,greedy -slo "$slo" -rate 0,300 -stats-json
		done
	fi
	printf '  ]'
	if [ -n "$GOBENCH" ]; then
		printf ',\n  "go_bench": [\n'
		go_bench
		printf '  ]\n'
	else
		printf '\n'
	fi
	printf '}\n'
} >"$OUT"

echo "bench: wrote $OUT"
