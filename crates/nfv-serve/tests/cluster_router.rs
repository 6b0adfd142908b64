//! Property tests for the cluster's placement.
//!
//! Two properties make [`placement`] fit for routing:
//!
//! 1. **Determinism** — a key's home and spill shards are a pure function
//!    of (route hash, shard count), so any process (or test) can recompute
//!    a request's home shard offline.
//! 2. **Balance** — every shard of an `n`-shard cluster owns an equal
//!    slice of the hash range, so each takes `1/n` of the keys (within
//!    10 %) of uniform hashes and of a mixed serving trace alike, and a
//!    spilled request always lands on another shard.

use nfv_data::prelude::*;
use nfv_serve::prelude::*;
use proptest::prelude::*;

/// splitmix64 — a key stream independent of the FNV family the route
/// hash is built from.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn keys(seed: u64, n: usize) -> Vec<u64> {
    let mut state = seed;
    (0..n).map(|_| splitmix(&mut state)).collect()
}

/// Route hashes of a mixed trace shaped like the serving benchmark's:
/// rows of the d = 14 NFV schema, feature 0 stepped by 1e-4 per op so
/// every op is its own cache cell, six methods in turn.
fn mixed_trace_hashes(ops: u64) -> Vec<u64> {
    const ROWS: u64 = 1_500;
    let data = generate_fluid(
        &SweepConfig::secure_web(1),
        ROWS as usize,
        Target::LatencyP95LogMs,
    )
    .unwrap();
    let methods = [
        ExplainMethod::KernelShap { n_coalitions: 64 },
        ExplainMethod::SamplingShapley {
            n_permutations: 4,
            antithetic: true,
        },
        ExplainMethod::Permutation,
        ExplainMethod::GroupedShapley,
        ExplainMethod::TreeShap,
        ExplainMethod::Lime { n_samples: 256 },
    ];
    let grid = ServeConfig::default().quantization_grid;
    (0..ops)
        .map(|op| {
            let mut features = data.row((op % ROWS) as usize).to_vec();
            features[0] += (op + 1) as f64 * 1e-4;
            route_hash("latency", methods[(op % 6) as usize], &features, grid).unwrap()
        })
        .collect()
}

/// Each shard's share of `hashes` lies within 10 % of `1/n`, and every
/// key's spill target is another shard.
fn assert_balanced(hashes: &[u64], what: &str) {
    for n in 2..=8 {
        let mut owned = vec![0usize; n];
        for &h in hashes {
            let (home, next) = placement(h, n);
            assert_ne!(next, Some(home), "{what}: n = {n} spills home");
            owned[home] += 1;
        }
        let fair = hashes.len() as f64 / n as f64;
        for (shard, &count) in owned.iter().enumerate() {
            let share = count as f64 / fair;
            assert!(
                (0.9..=1.1).contains(&share),
                "{what}: shard {shard} of {n} holds {:.3} of the keys (fair {:.3})",
                count as f64 / hashes.len() as f64,
                1.0 / n as f64
            );
        }
    }
}

#[test]
fn every_shard_holds_its_fair_share_of_uniform_hashes() {
    assert_balanced(&keys(7, 100_000), "splitmix");
}

#[test]
fn every_shard_holds_its_fair_share_of_a_mixed_trace() {
    assert_balanced(&mixed_trace_hashes(12_000), "mixed trace");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same key and shard count → same home and spill shard, for every
    /// cluster size we ship; the spill target is the next id, and a
    /// one-shard cluster has none. The extreme hashes land on the first
    /// and the last shard.
    #[test]
    fn placement_is_a_pure_function_of_the_shard_count(seed in 1u64..u64::MAX) {
        for n in 1..=8 {
            prop_assert_eq!(placement(0, n).0, 0);
            prop_assert_eq!(placement(u64::MAX, n).0, n - 1);
        }
        for &k in &keys(seed, 10_000) {
            prop_assert_eq!(placement(k, 1), (0, None));
            for n in [2usize, 3, 4, 8] {
                let (home, next) = placement(k, n);
                prop_assert!(home < n);
                prop_assert_eq!(next, Some((home + 1) % n));
                prop_assert_eq!((home, next), placement(k, n));
            }
        }
    }
}
