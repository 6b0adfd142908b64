//! Shared harness for the reconstructed evaluation: experiment setup
//! (datasets, fitted models), the served attribution sets the figures
//! aggregate, wall-clock helpers, and table formatting used by both the
//! `repro` binary and the Criterion benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod extensions;
pub mod figures;
pub mod tables;

use nfv_data::prelude::*;
use nfv_ml::prelude::*;
use nfv_serve::prelude::*;
use nfv_xai::prelude::*;
use std::time::{Duration, Instant};

/// Number of feature columns for a secure-web-style chain of `n` VNFs.
pub fn chain_feature_count(n_vnfs: usize) -> usize {
    nfv_data::features::GLOBAL_FEATURES + nfv_data::features::PER_VNF_FEATURES * n_vnfs
}

/// The standard experiment fixture: the SLA-violation and latency datasets
/// from the secure-web sweep, split and ready.
pub struct Fixture {
    /// SLA-violation classification data (train split).
    pub sla_train: Dataset,
    /// SLA-violation classification data (test split).
    pub sla_test: Dataset,
    /// Latency regression data (train split).
    pub lat_train: Dataset,
    /// Latency regression data (test split).
    pub lat_test: Dataset,
}

impl Fixture {
    /// Builds the fixture deterministically (fluid backend, `n` rows per
    /// task).
    pub fn new(n: usize, seed: u64) -> Fixture {
        let sweep = SweepConfig::secure_web(seed);
        let sla = generate_fluid(&sweep, n, Target::SlaViolation).expect("sla data");
        let lat = generate_fluid(&sweep, n, Target::LatencyP95LogMs).expect("latency data");
        let (sla_train, sla_test) = sla.split(0.25, seed).expect("split");
        let (lat_train, lat_test) = lat.split(0.25, seed).expect("split");
        Fixture {
            sla_train,
            sla_test,
            lat_train,
            lat_test,
        }
    }
}

/// A synthetic regression task with `d` features and an RF fitted on it —
/// the controlled-dimension subject for latency/convergence experiments.
pub struct SizedTask {
    /// The dataset.
    pub data: Dataset,
    /// A fitted random forest (50 trees, depth ≤ 8).
    pub forest: RandomForest,
    /// The forest packed into the SoA engine once, up front — the form a
    /// serving deployment evaluates (bit-identical to `forest`).
    pub packed: SoaForest,
    /// Background for model-agnostic methods.
    pub background: Background,
    /// Feature names.
    pub names: Vec<String>,
}

impl SizedTask {
    /// Builds the task at dimension `d` (needs `d ≥ 5`).
    pub fn new(d: usize, seed: u64) -> SizedTask {
        let s = friedman1(1_200, d, 0.3, seed).expect("friedman");
        let forest = RandomForest::fit(
            &s.data,
            &ForestParams {
                n_trees: 50,
                tree: TreeParams {
                    max_depth: 8,
                    ..TreeParams::default()
                },
                sample_fraction: 1.0,
            },
            seed,
            4,
        )
        .expect("forest");
        let background = Background::from_dataset(&s.data, 12, seed).expect("background");
        let names = s.data.names.clone();
        let packed = SoaForest::from_forest(&forest).expect("pack forest");
        SizedTask {
            data: s.data,
            forest,
            packed,
            background,
            names,
        }
    }
}

/// Explains every instance, in input order, through an in-process
/// [`Engine`] with the default configuration — the registry, worker
/// pipeline and cache an operator is served by — from the calling thread.
/// A figure's attribution set is thereby computed by the code that serves.
///
/// Panics on a refused or failed request and on any answer that is not
/// [`Fidelity::Exact`]: a figure must never aggregate degraded answers.
pub fn served(
    model: &ServeModel,
    names: &[String],
    background: &Background,
    method: ExplainMethod,
    instances: &[Vec<f64>],
) -> Vec<Attribution> {
    let engine = Engine::start(ServeConfig::default());
    engine
        .registry()
        .register("figure", model.clone(), names.to_vec(), background.clone())
        .expect("register");
    let attrs = instances
        .iter()
        .map(|x| {
            let resp = engine
                .explain(ExplainRequest {
                    model_id: "figure".into(),
                    features: x.clone(),
                    method,
                    budget: Duration::from_secs(60),
                })
                .expect("served explanation");
            assert_eq!(resp.fidelity, Fidelity::Exact, "degraded answer");
            (*resp.attribution).clone()
        })
        .collect();
    engine.shutdown();
    attrs
}

/// Times `f` over `reps` repetitions, returning mean milliseconds.
pub fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let reps = reps.max(1);
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() * 1e3 / reps as f64
}

/// Prints a fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:<w$}", w = *w))
        .collect::<Vec<_>>()
        .join(" | ")
}

/// Prints a table with a rule under the header.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        for (w, c) in widths.iter_mut().zip(r) {
            *w = (*w).max(c.len());
        }
    }
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", row(&head, &widths));
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("-+-")
    );
    for r in rows {
        println!("{}", row(r, &widths));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_builds_with_balanced_labels() {
        let f = Fixture::new(600, 1);
        assert_eq!(f.sla_train.n_rows() + f.sla_test.n_rows(), 600);
        let frac = f.sla_train.positive_fraction();
        assert!((0.05..0.95).contains(&frac), "{frac}");
        assert_eq!(f.lat_train.task, Task::Regression);
    }

    #[test]
    fn sized_task_has_requested_dimension() {
        let t = SizedTask::new(8, 2);
        assert_eq!(t.data.n_features(), 8);
        assert_eq!(t.names.len(), 8);
        assert_eq!(t.background.n_features(), 8);
        let x = t.data.row(0);
        assert_eq!(
            t.packed.predict(x).to_bits(),
            t.forest.predict(x).to_bits(),
            "packed engine must match the forest bit-for-bit"
        );
    }

    #[test]
    fn served_tree_shap_is_the_library_answer_in_input_order() {
        let s = friedman1(300, 6, 0.2, 3).unwrap();
        let params = GbdtParams {
            n_rounds: 20,
            ..GbdtParams::default()
        };
        let model = Gbdt::fit(&s.data, &params, 0).unwrap();
        let bg = Background::from_dataset(&s.data, 10, 1).unwrap();
        let mut instances: Vec<Vec<f64>> = (0..12).map(|i| s.data.row(i).to_vec()).collect();
        // A repeat is answered from the cache the first ask filled.
        instances.push(instances[3].clone());
        let got = served(
            &ServeModel::Gbdt(model.clone()),
            &s.data.names,
            &bg,
            ExplainMethod::TreeShap,
            &instances,
        );
        let bits = |a: &Attribution| -> Vec<u64> {
            let tail = [a.base_value, a.prediction];
            a.values.iter().chain(&tail).map(|v| v.to_bits()).collect()
        };
        assert_eq!(got.len(), instances.len());
        for (a, x) in got.iter().zip(&instances) {
            let want = gbdt_shap(&model, x, &s.data.names).unwrap();
            assert_eq!(bits(a), bits(&want));
            assert_eq!(a.names, want.names);
        }
        assert_eq!(bits(&got[12]), bits(&got[3]));
    }

    #[test]
    fn chain_feature_count_formula() {
        assert_eq!(chain_feature_count(3), 14);
        assert_eq!(chain_feature_count(2), 10);
    }

    #[test]
    fn table_formatting_is_aligned() {
        let rows = [vec!["a".into(), "bbbb".into()]];
        let s = row(&rows[0], &[3, 4]);
        assert_eq!(s, "a   | bbbb");
        let t = time_ms(3, || 1 + 1);
        assert!(t >= 0.0);
    }
}
