#!/usr/bin/env bash
# Reproducible counting-kernel benchmarks for the explain hot path.
#
# Builds the `bench-explain` harness and runs every fixed-seed workload,
# emitting one artifact per workload at the repo root:
# BENCH_<query-id>.json (e.g. BENCH_FL-Q1.json). The set covers the five
# Flights queries (1M rows) and the three synthetic region-blocked
# planted-confounder workloads (SYN-B1 plain, SYN-W1 IPW-weighted,
# SYN-M1 masked; 10M rows by default). Each JSON (schema_version 4)
# records kernel operation counters (rows scanned, hash ops, dense ops,
# narrow scans, packed words skipped, radix vs full merge cells) and an
# explanation signature for a plain pass and a memo-cold/memo-warm pair
# — counters are machine-independent, so the numbers are reproducible
# anywhere; wall-clock is recorded but never gated on.
#
# Usage:
#   scripts/bench.sh                       # all workloads, 8 threads
#   scripts/bench.sh --only FL-Q1          # a single workload
#   scripts/bench.sh --quick               # small smokes (20k FL / 250k SYN)
#   scripts/bench.sh --rows 500000 --threads 4
#
# Unrecognized flags are forwarded to bench-explain; --check makes the
# harness exit nonzero unless the acceptance thresholds hold (bit-identical
# memo outputs, coalesced dense writes below rows, radix merges below the
# v1 bill, narrow scans engaged, pool engaged, warm memo pass hits). The
# CI smoke invokes bench-explain directly (quick workloads, artifacts
# under target/) and compares each report with the checked-in quick
# report under results/bench_quick/ — see scripts/ci.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

ONLY=""
FORWARD=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --only)
      ONLY="${2:?--only needs a query id}"
      shift 2
      ;;
    *)
      FORWARD+=("$1")
      shift
      ;;
  esac
done

cargo build --release --offline -p nexus-bench --bin bench-explain

# The Flights workload set from the paper's benchmark suite (Table 1)
# plus the synthetic kernel-stress workloads (nexus_datagen::synth).
WORKLOADS=(FL-Q1 FL-Q2 FL-Q3 FL-Q4 FL-Q5 SYN-B1 SYN-W1 SYN-M1)
if [[ -n "$ONLY" ]]; then
  WORKLOADS=("$ONLY")
fi

for id in "${WORKLOADS[@]}"; do
  out="BENCH_${id}.json"
  echo "bench: workload ${id} -> ${out}" >&2
  target/release/bench-explain --query "$id" --out "$out" \
    ${FORWARD[@]+"${FORWARD[@]}"}
done

echo "bench: wrote ${#WORKLOADS[@]} artifact(s)" >&2
