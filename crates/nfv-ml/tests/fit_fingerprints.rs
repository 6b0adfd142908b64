//! Fingerprints of the models the benchmark and the figures are built on.
//!
//! Each test fits one model the way a consumer does and compares an FNV-1a
//! hash over every field of every node (and the ensemble's own scalars)
//! with a value pinned when the split search still sorted with
//! `sort_unstable` and scanned one position at a time. A change to the
//! split search that moves one bit of one threshold, value or cover
//! fails here; re-pin only on purpose.

use nfv_data::prelude::*;
use nfv_ml::prelude::*;

/// FNV-1a, 64-bit, fed field by field.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn tree(&mut self, t: &DecisionTree) {
        self.u64(t.n_features as u64);
        self.u64(t.task as u64);
        self.u64(t.nodes.len() as u64);
        for n in t.nodes.iter() {
            self.u64(n.feature as u64);
            self.f64(n.threshold);
            self.u64(n.left as u64);
            self.u64(n.right as u64);
            self.f64(n.value);
            self.f64(n.cover);
            self.u64(n.is_leaf as u64);
        }
    }
}

fn forest_print(f: &RandomForest) -> u64 {
    let mut h = Fnv::new();
    h.u64(f.n_features as u64);
    h.u64(f.task as u64);
    f.trees.iter().for_each(|t| h.tree(t));
    h.0
}

/// The serving workloads' forest (depth 8, default leaf sizes, d/3
/// features per node, full-size bootstrap), on fewer rows and trees.
fn fixture_forest_params(n_trees: usize) -> ForestParams {
    ForestParams {
        n_trees,
        tree: TreeParams {
            max_depth: 8,
            ..TreeParams::default()
        },
        sample_fraction: 1.0,
    }
}

#[test]
fn fixture_shaped_forest() {
    let cfg = SweepConfig::secure_web(1);
    let data = generate_fluid(&cfg, 1_500, Target::LatencyP95LogMs).unwrap();
    let forest = RandomForest::fit(&data, &fixture_forest_params(10), 1, 1).unwrap();
    assert_eq!(forest_print(&forest), 0xfbed_c82b_ee2f_dd4f);
}

/// The retrain epoch's refit: a 600-row window, the full 50 trees.
#[test]
fn retrain_window_forest() {
    let cfg = SweepConfig::secure_web(7);
    let data = generate_fluid(&cfg, 600, Target::LatencyP95LogMs).unwrap();
    let forest = RandomForest::fit(&data, &fixture_forest_params(50), 7, 1).unwrap();
    assert_eq!(forest_print(&forest), 0x972d_357b_3528_36f6);
}

/// A stochastic GBDT on the SLA label: logistic residuals, row
/// subsampling, a per-node feature subset.
#[test]
fn gbdt_classifier() {
    let cfg = SweepConfig::secure_web(99);
    let data = generate_fluid(&cfg, 1_000, Target::SlaViolation).unwrap();
    let params = GbdtParams {
        n_rounds: 30,
        subsample: 0.8,
        tree: TreeParams {
            max_features: Some(7),
            ..GbdtParams::default().tree
        },
        ..GbdtParams::default()
    };
    let gbdt = Gbdt::fit(&data, &params, 99).unwrap();
    let mut h = Fnv::new();
    h.f64(gbdt.base_score);
    h.f64(gbdt.learning_rate);
    h.u64(gbdt.n_features as u64);
    h.u64(gbdt.task as u64);
    gbdt.trees.iter().for_each(|t| h.tree(t));
    assert_eq!(h.0, 0xfc9e_e2e2_c1b2_67d8);
}
