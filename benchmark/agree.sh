#!/usr/bin/env bash
# agree.sh A B — do two result files (run.sh --out) of the same commit agree
# within the benchmark's own bounds? Prints one row per workload; exits 0 iff
# every (end-to-end metric, workload) pair differs by less than its bound and
# max_load_pct is bit-equal wherever routing is deterministic in the seed.
set -euo pipefail
[ $# -eq 2 ] || { echo "usage: agree.sh A B" >&2; exit 2; }
a="$(realpath "$1")" b="$(realpath "$2")"
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/perf_ledger" agree "$a" "$b"
