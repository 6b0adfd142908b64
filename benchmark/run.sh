#!/usr/bin/env bash
# Builds nfv-perf (release) and runs it. Arguments go to the binary:
#
#   benchmark/run.sh                       every workload, each in its own process
#   benchmark/run.sh --workload hot_zipf   one workload
#   benchmark/run.sh --trace               per-layer metrics + a span file per workload
#   benchmark/run.sh --smoke               1 % of the ops, all verification on
#   benchmark/run.sh --check-repeat        two interleaved sets of five runs, compared
#
# also --seed N (and --seconds S, which the driver passes: run_seconds in
# BENCHMARK.json). Exits non-zero if the build, an operation
# or a verification fails. See benchmark/README.md.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

# Build products and run records stay inside the checkout.
case "${CARGO_TARGET_DIR:-target}" in
    /*) target=$CARGO_TARGET_DIR ;;
    *) target=$root/${CARGO_TARGET_DIR:-target} ;;
esac
export CARGO_TARGET_DIR=$target
export NFV_PERF_OUT=$target/nfv-perf
NFV_PERF_COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
export NFV_PERF_COMMIT

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$target/release/nfv-perf" "$@"
