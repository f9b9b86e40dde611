#!/usr/bin/env bash
# Full local verification: build, every test, clippy with warnings
# denied, rustdoc with warnings denied (the gridmpi/netsim crates
# enforce #![warn(missing_docs)]), the doctests on their own (they
# exercise the public examples in the API docs, e.g. the
# metrics-registry example), the commlint and archlint static scans,
# the commcheck happens-before gate, and the fault-matrix smoke.
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test --workspace"
cargo test -q --workspace

echo "==> cargo clippy --all-targets (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo test --doc --workspace"
cargo test -q --doc --workspace

echo "==> commlint (static determinism lint: wall clock, HashMap iteration,"
echo "    wildcard receives, tag protocol; see docs/static-analysis.md)"
cargo run --release -q -p tsqr-lint --bin commlint

echo "==> archlint (workspace analyzer: crate layering vs scripts/layering.toml,"
echo "    nondeterminism-taint propagation, message-flow model vs"
echo "    scripts/archlint.model, hermetic manifests, reachability of every"
echo "    pub fn; see docs/static-analysis.md)"
cargo run --release -q -p tsqr-lint --bin archlint

echo "==> linkcheck (markdown links + anchors across README, EXPERIMENTS, docs/)"
cargo run --release -q -p tsqr-lint --bin linkcheck

echo "==> commcheck (happens-before gate: figure scenarios + fault matrix"
echo "    + DPOR-lite explorer, pinned against COMMCHECK_baseline.txt)"
./target/release/grid-tsqr check --recv-timeout 60 --golden COMMCHECK_baseline.txt

echo "==> fault-matrix smoke (self-healing TSQR via the CLI)"
# Crash one representative rank of every tree level on the 4-site grid
# (256 ranks, GridHierarchical): leaf, intra-cluster combiner, cluster
# root, WAN-phase combiner, global root. Each run verifies the
# recovered R bitwise against the failure-free reference and exits
# nonzero otherwise. The last run also shows the plain program's typed
# failure report (--baseline); a final run mixes transient loss with a
# WAN brown-out.
FAULTS="./target/release/grid-tsqr faults --m 65536 --n 32 --sites 4 --recv-timeout 30"
for spec in 255@0.5 2@2 64@2 128@6 0@6; do
  $FAULTS --crash "$spec" >/dev/null
done
$FAULTS --crash 0@2 --crash 1@4 --baseline >/dev/null
$FAULTS --drop-prob 64:0:0.4 --wan-slow 0:50:4:4 --fault-seed 7 >/dev/null
echo "    fault smoke: all scenarios recovered bitwise"

echo "==> serving-layer smoke (multi-tenant scheduler: every policy on one"
echo "    seeded trace, plus the batched same-shape burst; docs/serving.md)"
SERVE="./target/release/grid-tsqr serve --requests 40 --seed 11"
$SERVE --policy all --load 1.5 >/dev/null
$SERVE --policy fifo --load 4.0 --shape 3 --batch >/dev/null
$SERVE --policy sjf --sweep 0.5,1.0,2.0 >/dev/null
echo "    serve smoke: all policies scored, batch and sweep render"

echo "==> serving chaos smoke (failure schedules in the serve engine:"
echo "    crash + checkpointed retry, crash + elastic re-plan, degraded"
echo "    WAN + brownout shed; docs/serving.md §Failures)"
$SERVE --load 1.0 --crash 2@100 >/dev/null
$SERVE --load 1.0 --crash 2@100 --shape 3 --no-checkpoint >/dev/null
$SERVE --load 0.5 --wan-slow 50:5000:1:8 \
  --drop-flow 0:2:0 --drop-flow 0:2:1 --drop-flow 0:2:2 \
  --drop-flow 0:2:3 --drop-flow 0:2:4 --drop-flow 0:2:5 \
  --backoff 200 --brownout 1:0 >/dev/null
echo "    chaos smoke: crashed, re-planned, browned out, recovered"

echo "==> report gate (experiment-ledger dashboard pinned against"
echo "    REPORT_baseline.md; --check flags anomalous model residuals)"
./target/release/grid-tsqr report --ledger ledger/runs.jsonl \
  --golden REPORT_baseline.md --check

echo "verify: all green"
