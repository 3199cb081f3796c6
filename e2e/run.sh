#!/usr/bin/env bash
# Builds the release `serve` binary and the `e2e` harness into one target
# directory (CARGO_TARGET_DIR, default .bench_build at the repository root),
# then runs `e2e` with the given arguments. `e2e` finds `serve` next to
# itself. Build output goes to stderr; stdout is e2e's alone.
#
#   bash e2e/run.sh --workload cold_fusion --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p disparity-service --bin serve >&2
cargo build --release --offline --quiet --manifest-path e2e/Cargo.toml --bin e2e >&2
exec "$CARGO_TARGET_DIR/release/e2e" "$@"
