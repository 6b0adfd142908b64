#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite — of every
# workspace member (the root is itself a package, so without `--workspace`
# cargo would cover `nfv-xai-repro` alone). Run from the workspace root
# before pushing.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Open-dispatch invariant: the serving layer resolves methods through the
# registry; a `match` on `ExplainMethod::` variants creeping back into the
# worker/registry dispatch path (outside #[cfg(test)]) re-closes it.
echo "==> open-dispatch check (no ExplainMethod:: match arms in serve dispatch)"
for f in crates/nfv-serve/src/worker.rs crates/nfv-serve/src/registry.rs; do
  if awk '/#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -n 'ExplainMethod::'; then
    echo "FAIL: $f dispatches on ExplainMethod variants; use MethodRegistry"
    exit 1
  fi
done

# No-timer invariant: batches form from backlog, never from a wait. A
# `recv_timeout` or `sleep` in the gather or the worker loop (outside
# #[cfg(test)]) puts a timer back on every request's path.
echo "==> no-timer check (no recv_timeout / sleep on the request path)"
for f in crates/nfv-serve/src/batcher.rs crates/nfv-serve/src/worker.rs; do
  if awk '/#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -n 'recv_timeout\|sleep'; then
    echo "FAIL: $f waits on a timer; gather what is queued and go"
    exit 1
  fi
done

echo "==> cargo test --workspace -q (unit, integration and doc tests)"
cargo test --workspace -q

# The TreeSHAP kernel is arithmetic and recursion, and the run above is the
# debug profile only: its references (2^d brute force, the closed form) and
# the deep-chain inputs once more as the optimizer compiles them.
echo "==> cargo test --release: the TreeSHAP kernel, its references, the deep chains"
cargo test --release -p nfv-xai -q shapley::tree
cargo test --release -p nfv-ml -q very_deep_chain
cargo test --release -p nfv-serve -q --lib refused_at_registration

echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> bench smoke (serve_throughput + explain_latency + soa_kernels --test)"
cargo bench -p nfv-bench --bench serve_throughput -- --test
cargo bench -p nfv-bench --bench explain_latency -- --test
cargo bench -p nfv-bench --bench soa_kernels -- --test

# Multi-process wire smoke: three real nfv-shard processes on loopback, a
# short mixed replay checked bit-for-bit against an in-process engine,
# then a pipelined storm (64 concurrent connections, depth 8 per socket)
# against the event-driven server — zero protocol errors, clean drain.
# Exits non-zero on any violation.
echo "==> nfv-net multi-process smoke (3 shard processes, 64-conn pipelined storm)"
# The smoke spawns target/release/nfv-shard; `cargo run --bin nfv-net-smoke`
# alone would not rebuild it, and a stale shard binary fails bit-identity.
cargo build -q --release -p nfv-net --bins
cargo run -q --release -p nfv-net --bin nfv-net-smoke

# nfv-perf smoke: the four end-to-end workloads at 1 % of their ops with
# every verification on (bit-identity to the layer replay / the in-process
# engine, efficiency, model versions). Exits non-zero on a failed op or a
# failed verification; the figures it prints are not gated here.
echo "==> nfv-perf smoke (benchmark/run.sh --smoke)"
benchmark/run.sh --smoke > /dev/null

# Perf-regression gate: rerun the timed benches and diff the fresh medians
# (BENCH_*.json at the workspace root) against the blessed baselines/.
# Fails if any median regressed by more than 25%. Set NFV_BENCH_GATE=off to
# skip on machines whose perf envelope differs from the blessed one.
if [ "${NFV_BENCH_GATE:-on}" = "off" ]; then
  echo "==> bench gate: SKIPPED (NFV_BENCH_GATE=off)"
else
  echo "==> bench gate (timed run vs baselines/, tolerance 25%)"
  cargo bench -p nfv-bench --bench serve_throughput
  cargo bench -p nfv-bench --bench explain_latency
  cargo bench -p nfv-bench --bench soa_kernels
  cargo run -q --release -p nfv-bench --bin bench_gate -- \
    baselines/BENCH_serve_throughput.json BENCH_serve_throughput.json
  cargo run -q --release -p nfv-bench --bin bench_gate -- \
    baselines/BENCH_explain_latency.json BENCH_explain_latency.json
  cargo run -q --release -p nfv-bench --bin bench_gate -- \
    baselines/BENCH_soa_kernels.json BENCH_soa_kernels.json
  # To re-bless after an intentional perf change:
  #   cargo run --release -p nfv-bench --bin bench_gate -- --bless
  # (wire_replay stays unblessed by contract: it is in the gate's built-in
  # GATE_EXEMPT_GROUPS list — reported informationally, never gated, never
  # blessed — because this container's single core cannot measure the
  # multi-process wire tier honestly; see EXPERIMENTS.md §S4.1.)
  # The ≥3× 4-shard scaling gate now lives inside the serve_throughput
  # bench binary (cluster scaling gate; self-skips on hosts with < 5
  # cores and in --test smoke mode), so the timed run above covers it.
fi

echo "==> CI OK"
