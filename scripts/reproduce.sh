#!/bin/sh
# Regenerate the full reproduction artifact set:
#   1. run the complete test suite (unit, integration, property, shape tests)
#   2. regenerate every table/figure series
#   3. run the ablation + extension benchmarks (the figures are step 2)
# Results land in test_output.txt, figures_output.txt, bench_output.txt.
set -e
cd "$(dirname "$0")/.."

echo "== tests =="
go test ./... 2>&1 | tee test_output.txt

echo "== figures (tables for EXPERIMENTS.md) =="
go run ./cmd/figures -fig all 2>&1 | tee figures_output.txt

echo "== benchmarks =="
go test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt
