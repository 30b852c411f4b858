#!/usr/bin/env bash
# The repo's benchmark, one command. Builds perf_ledger once, then:
#
#   run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload in one fresh process; the last line of standard output
#       is the result object (this is the form BENCHMARK.json's command takes)
#
#   run.sh [--seed N] [--seconds S] [--quick] [--layers] [--trace] [--out FILE]
#       a whole set: the five workloads, one fresh process each, every
#       end-to-end metric printed by name with unit, quartiles and n, and
#       one record per workload written to FILE (default
#       benchmark/out/results.jsonl). --layers adds the per-layer ledger,
#       --trace the traced run and its decomposition table.
#
# Exits non-zero if the build fails or any operation of any workload failed.
# Writes only under benchmark/out/ and the cargo target directory.
set -euo pipefail
cd "$(dirname "$0")/.."

workload="" seed=42 seconds=15 trace_arg="" out="benchmark/out/results.jsonl"
quick=() layers=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --quick) quick=(--quick); shift ;;
    --layers) layers=1; shift ;;
    --trace)
      # The contract passes 0 or 1; for a set the bare flag is a switch.
      if [[ "${2:-}" =~ ^[01]$ ]]; then trace_arg="$2"; shift 2
      else trace_arg=1; shift; fi ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/perf_ledger"

if [ -n "$workload" ]; then
  exec "$bin" run "$workload" --seed "$seed" --seconds "$seconds" --trace "${trace_arg:-0}"
fi

mkdir -p "$(dirname "$out")"
: > "$out"
status=0
for w in wc_sat_pool wc_optin_pool wc_paced_pool wc_flush_pool route_sim; do
  "$bin" run "$w" --seed "$seed" --seconds "$seconds" "${quick[@]}" --out "$out" || status=1
  echo
done
if [ "$layers" = 1 ]; then
  "$bin" layers --seed "$seed" --seconds "$seconds" || status=1
  echo
fi
if [ "$trace_arg" = 1 ]; then
  "$bin" trace --seed "$seed" || status=1
fi
echo "results: $out" >&2
exit "$status"
