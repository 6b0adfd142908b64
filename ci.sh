#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite — of every
# workspace member (the root is itself a package, so without `--workspace`
# cargo would cover `nfv-xai-repro` alone) — then the bench, wire and
# nfv-perf smokes. Nothing here is timed: a perf claim is judged by
# nfv-perf's alternating pairs (benchmark/README.md, "Citing a claim").
# Run from the workspace root before pushing.
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

# No-timer invariant: batches form from backlog, never from a wait, and a
# single-flight follower parks on its leader's flight instead of waiting
# out its budget. A `recv_timeout` or `sleep` in the worker loop or the
# engine's miss path (outside #[cfg(test)]) puts a timer back on every
# request's path.
echo "==> no-timer check (no recv_timeout / sleep on the request path)"
for f in crates/nfv-serve/src/worker.rs crates/nfv-serve/src/engine.rs; do
  if awk '/#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -n 'recv_timeout\|sleep'; then
    echo "FAIL: $f waits on a timer; gather what is queued and go, park what follows"
    exit 1
  fi
done

# Clean-hit invariant: a cache hit is counted, not timed. The body of
# `Engine::cached` reads no clock, records no latency sample and owns no
# copy of the request; an `Instant`, an `elapsed(`, a `.record(` or a
# `.clone()` there puts that cost back on every hit. The grep reads only
# the body's own text, not what it calls; the behaviour is pinned by
# serve_counters (a burst of hits records no latency sample) and
# cache_hit_alloc (a hit allocates nothing).
echo "==> clean-hit check (no timer, sample or clone in Engine::cached)"
f=crates/nfv-serve/src/engine.rs
body=$(awk '/^    pub\(crate\) fn cached\(/{on=1} on{print} on && /^    }$/{exit}' "$f")
if [ -z "$body" ]; then
  echo "FAIL: $f has no Engine::cached to check"
  exit 1
fi
if grep -n 'Instant\|elapsed(\|\.record(\|\.clone()' <<<"$body"; then
  echo "FAIL: Engine::cached times, samples or clones; a hit is one probe and one relaxed add"
  exit 1
fi

# One-lock-per-key invariant: a key's flight lives in the cache shard that
# holds its entry, behind the same mutex, so `ShardedCache::join` decides
# hit, park or lead in one step and `fill` writes the entry and releases the
# parked followers in another. worker.rs (outside #[cfg(test)]) calls the
# cache for those two ends of a flight, `fill` and `pass_flight`, and for
# nothing else: any other call, whatever its name, is a lookup (a queue-time
# recheck, a second place that decides). A flight map (or a parked `Job`) on
# `ShardedCache` itself is a global flight table beside the shards, with a
# lock of its own.
echo "==> one-lock-per-key check (worker.rs only fills and passes flights, no flight map on ShardedCache)"
f=crates/nfv-serve/src/worker.rs
if awk '/#\[cfg\(test\)\]/{exit} {print}' "$f" \
  | grep -noE 'cache\s*\.\s*[A-Za-z_][A-Za-z0-9_]*\s*(::\s*<[^>]*>\s*)?\(|ShardedCache\s*::\s*[a-z_]+|get_ref\(' \
  | grep -vE 'cache\s*\.\s*(fill|pass_flight)\s*\(' ; then
  echo "FAIL: $f calls the cache beyond fill / pass_flight; a queued job leads its key's flight, and the join already decided"
  exit 1
fi
f=crates/nfv-serve/src/cache.rs
body=$(awk '/^pub struct ShardedCache \{/{on=1} on{print} on && /^\}$/{exit}' "$f")
if [ -z "$body" ]; then
  echo "FAIL: $f has no ShardedCache to check"
  exit 1
fi
if grep -niE 'flight|FpMap|Job' <<<"$body"; then
  echo "FAIL: ShardedCache keeps a flight map of its own; a key's flight lives in its TierShard"
  exit 1
fi

# One-owner-per-connection-fact invariant: a `ShardConn`'s pending map is
# its liveness (`None` once the stream has died), so a call parks on a
# live connection or fails at once under one lock. An `AtomicBool` in
# client.rs (outside #[cfg(test)]) is a second copy of that fact, with an
# ordering protocol to keep the two in step, and a `hook` is a seam for
# forcing the race between them. The shard's in-flight count and drain
# state are the event loop's own: only `completed`, `protocol_errors` and
# `stop` are read from other threads, so `struct ShardInner` naming
# `in_flight` or `draining` is loop state shared again.
echo "==> one-owner-per-connection-fact check (no liveness flag or hook in client.rs, no loop state in ShardInner)"
f=crates/nfv-net/src/client.rs
if awk '/#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -niE 'AtomicBool|hook'; then
  echo "FAIL: $f keeps connection state beside its pending map; the map is the one owner"
  exit 1
fi
f=crates/nfv-net/src/server.rs
body=$(awk '/^struct ShardInner \{/{on=1} on{print} on && /^\}$/{exit}' "$f")
if [ -z "$body" ]; then
  echo "FAIL: $f has no ShardInner to check"
  exit 1
fi
if grep -nE 'in_flight|draining' <<<"$body"; then
  echo "FAIL: ShardInner shares loop state; the event loop owns its in-flight count and drain"
  exit 1
fi

# One-routing-signal invariant: a worker plans every job into its block and
# runs alone the ones whose plan refuses. A `.fusable()` call in the serving
# crate (outside #[cfg(test)]) is a second routing rule beside the refusal.
echo "==> one-routing-signal check (no .fusable() in nfv-serve/src)"
for f in crates/nfv-serve/src/*.rs; do
  if awk '/#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -n '\.fusable()'; then
    echo "FAIL: $f routes on fusable(); a plan refusal is the only routing signal"
    exit 1
  fi
done

# One-enumeration invariant: exact, grouped and interaction Shapley are
# one `2^k` coalition table (`shapley::exact::Enumeration`) with one guard,
# one plan and one chunked run. A second `check_stackable(` call in
# crates/core/src (outside #[cfg(test)] and comments) is a second
# enumeration planning on its own; a `fn fusable` anywhere but the trait
# default and TreeSHAP is a method that has stopped planning.
echo "==> one-enumeration check (one check_stackable call; only TreeSHAP overrides fusable)"
calls=0
owners=""
for f in $(find crates/core/src -name '*.rs'); do
  src=$(awk '/#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -v '^[[:space:]]*//')
  n=$(grep 'check_stackable(' <<<"$src" | grep -vc 'fn check_stackable(' || true)
  calls=$((calls + n))
  owners="$owners$(awk '/^(pub )?trait |^impl /{owner=$0} /fn fusable/{print owner}' <<<"$src")"$'\n'
done
owners=$(grep -v '^$' <<<"$owners" | sort)
expected=$(printf '%s\n' 'impl Explainer for TreeShapExplainer {' 'pub trait Explainer: Send + Sync {' | sort)
if [ "$calls" -ne 1 ] || [ "$owners" != "$expected" ]; then
  echo "FAIL: $calls check_stackable call(s) in crates/core/src (want 1); fusable defined by:"
  echo "$owners"
  exit 1
fi

# One-thread-owner invariant: the worker pool is the serving crate's only
# compute loop, and `worker.rs` owns its threads. A `thread::Builder` or
# `thread::spawn` in another nfv-serve/src file (outside #[cfg(test)]) is a
# second loop beside it, with its own panics and its own shutdown; queue the
# work as a job instead.
echo "==> one-thread-owner check (threads spawn only in nfv-serve/src/worker.rs and the shard's event loop)"
for f in crates/nfv-serve/src/*.rs; do
  [ "$f" = crates/nfv-serve/src/worker.rs ] && continue
  if awk '/#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -n 'thread::Builder\|thread::spawn'; then
    echo "FAIL: $f spawns a thread; serving work is a job on the worker pool"
    exit 1
  fi
done
# The shard server's one thread is its event loop: it submits explains into
# the engine, whose workers answer them. A second `thread::Builder` or any
# `thread::spawn` in server.rs is a pool beside the workers again.
f=crates/nfv-net/src/server.rs
src=$(awk '/#\[cfg\(test\)\]/{exit} {print}' "$f")
builders=$(grep -c 'thread::Builder' <<<"$src" || true)
if [ "$builders" -ne 1 ] || grep -n 'thread::spawn' <<<"$src"; then
  echo "FAIL: $f starts threads besides its event loop ($builders thread::Builder); submit to the engine instead"
  exit 1
fi

# One-pool invariant: the serving engine's workers are the system's only
# explanation pool. The explainer, simulator and data crates run on their
# caller's thread; a `thread::spawn` / `thread::scope` / `thread::Builder` /
# `crossbeam::scope` in their src (outside #[cfg(test)]) is a second pool
# beside it, with its own scheduling and its own panics. nfv-ml's forest
# fit is the one known exception and is not checked here.
echo "==> one-pool check (no thread pools in nfv-xai, nfv-sim, nfv-data src)"
for f in $(find crates/core/src crates/nfv-sim/src crates/nfv-data/src -name '*.rs'); do
  if awk '/#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -nE 'thread::(spawn|scope|Builder)|crossbeam::scope'; then
    echo "FAIL: $f runs its own threads; run on the caller's thread (the engine's workers are the one pool)"
    exit 1
  fi
done

# One-router invariant: placement (the route hash, the home shard and its
# spill successor) lives in nfv-serve's `Router`; a second copy of it
# outside cluster.rs (outside #[cfg(test)]) is a second router that can
# drift.
echo "==> one-router check (no placement outside nfv-serve/src/cluster.rs)"
for f in $(find crates/*/src -name '*.rs' ! -path crates/nfv-serve/src/cluster.rs); do
  if awk '/#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -n 'HashRing::\|next_shard(\|\<placement(\|route_hash('; then
    echo "FAIL: $f routes requests itself; use nfv_serve::cluster::Router"
    exit 1
  fi
done

# Fixed-membership invariant: a cluster is the shards it starts with, ids
# `0..n`, placed by one multiply. A `fn join` / `fn leave` or a `HashRing`
# in cluster.rs (outside #[cfg(test)]) is elastic membership back; a `log`
# or an `RwLock` in `struct Router` is the history a joiner replays or the
# member snapshot every explain would read.
echo "==> fixed-membership check (no join / leave / ring in cluster.rs, no log or RwLock in Router)"
f=crates/nfv-serve/src/cluster.rs
if awk '/#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -nE 'fn (join|leave)\b|HashRing'; then
  echo "FAIL: $f changes membership; a cluster is the shards it starts with"
  exit 1
fi
body=$(awk '/^pub struct Router<S: Shard> \{/{on=1} on{print} on && /^\}$/{exit}' "$f")
if [ -z "$body" ]; then
  echo "FAIL: $f has no Router to check"
  exit 1
fi
if grep -nwE 'log|RwLock' <<<"$body"; then
  echo "FAIL: Router keeps a registration log or a member snapshot; its shards are a fixed list"
  exit 1
fi

# One-layout invariant: each wire message has one encoding per protocol
# version, and stats JSON has one shape. A `#[serde(default)]` (which the
# vendored derive refuses to compile anyway) or a second `is_empty()` in
# msg.rs's codec — an optional tail read "if bytes remain" — guesses at an
# old layout instead of bumping `frame::VERSION`.
echo "==> one-layout check (no serde(default), no optional tail in msg.rs)"
if grep -rn 'serde(default' crates vendor; then
  echo "FAIL: stats and wire JSON have one shape; bump the version instead"
  exit 1
fi
tails=$(awk '/#\[cfg\(test\)\]/{exit} {print}' crates/nfv-net/src/msg.rs | grep -c 'is_empty()' || true)
if [ "$tails" -ne 1 ]; then
  echo "FAIL: msg.rs has $tails is_empty() calls; only the trailing-bytes rejection may test for remaining bytes"
  exit 1
fi

# One-data-model invariant: JSON streams straight between the text and the
# Rust type through the vendored serde's `Writer` and `Reader`. A
# `to_value` / `from_value` pair or the old `__private::field` helper
# creeping back (outside #[cfg(test)]) is a second JSON path that can drift
# from the first.
echo "==> one-data-model check (no to_value / from_value / __private::field)"
for f in $(find vendor crates/*/src -name '*.rs'); do
  if awk '/#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -nE '\b(to_value|from_value)\b|__private::field'; then
    echo "FAIL: $f builds a second JSON data model; serialize to a serde::Writer, deserialize from a serde::Reader"
    exit 1
  fi
done

# No-ambient-config invariant: the library crates read no environment
# variable. Behaviour is set through config values and tests inject what
# they need through public APIs (a plug-in method, a config field) — an
# `env::var` in `src` is a process-wide switch other tests in the same
# binary can trip over.
echo "==> no-env check (no env::var in crates/*/src)"
if grep -rn 'env::var' crates/*/src; then
  echo "FAIL: crates read no environment variables; take a config value instead"
  exit 1
fi

echo "==> cargo test --workspace -q (unit, integration and doc tests)"
cargo test --workspace -q

# The TreeSHAP kernel is arithmetic and recursion, and the run above is the
# debug profile only: its references (2^d brute force, the closed form) and
# the deep-chain inputs once more as the optimizer compiles them.
echo "==> cargo test --release: the TreeSHAP kernel, its references, the deep chains"
cargo test --release -p nfv-xai -q shapley::tree
cargo test --release -p nfv-ml -q very_deep_chain
cargo test --release -p nfv-serve -q --lib refused_at_registration

# The CART split search likewise: its batch gain loop is vectorized only
# when optimized, so its oracles (the reference builder, the radix sort
# against sort_unstable) and the pinned model fingerprints run again on
# the code that ships.
echo "==> cargo test --release: the split search's oracles and fingerprint pins"
cargo test --release -p nfv-ml -q --lib builder_matches_the_stable_sort
cargo test --release -p nfv-ml -q --test fit_fingerprints

echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

# Every criterion bench body once, untimed: the only thing that proves a
# microscope still runs (its setup asserts included).
echo "==> bench smoke (all nine nfv-bench targets, --test)"
cargo bench -p nfv-bench --bench '*' -- --test

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

echo "==> CI OK"
