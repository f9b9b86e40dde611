#!/usr/bin/env bash
# Perf-regression gate: measures every scenario of the registry in
# crates/bench/src/figures.rs (deterministic simulation) and compares the
# records against the committed BENCH_baseline.json. The 24 records come
# in five families: the Figs. 4-8 headline points, WAN-degradation
# faults, autotuned trees, serving points and fault-injected serving
# points. See docs/observability.md for the record schema and the
# tolerances.
#
# Usage:
#   scripts/bench_check.sh            # measure and compare; exit 1 on drift
#   scripts/bench_check.sh --bless    # rewrite BENCH_baseline.json
#
# Env:
#   GRID_TSQR_BENCH_RTOL   relative tolerance for times (default 1e-9)
#   GRID_TSQR_LEDGER       experiment-ledger JSONL every measured point is
#                          appended to (default ledger/runs.jsonl; set to
#                          the empty string to disable)
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=BENCH_baseline.json
RESULTS=BENCH_results.json
# Every gate run also extends the cross-run experiment ledger behind
# `grid-tsqr report` (docs/observability.md section 9).
export GRID_TSQR_LEDGER="${GRID_TSQR_LEDGER-ledger/runs.jsonl}"

if [[ "${1:-}" == "--bless" ]]; then
  exec cargo run --release -q -p tsqr-bench --bin bench_check -- \
    --bless --baseline "$BASELINE"
fi

exec cargo run --release -q -p tsqr-bench --bin bench_check -- \
  --baseline "$BASELINE" --out "$RESULTS"
