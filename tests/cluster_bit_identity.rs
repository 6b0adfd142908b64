//! The cluster determinism contract, end to end: for every serve method,
//! an explanation computed (1) directly against the library, (2) by a
//! single-shard [`ServeEngine`], and (3) by a multi-shard [`ServeCluster`]
//! is **bit-identical** (`f64::to_bits`).
//!
//! This is possible because every stochastic explainer is seeded from
//! request *content* (`request_seed(engine seed, cache-key hash)`), never
//! from arrival order, worker identity, or shard identity — so the test
//! can reconstruct the serving layer's exact seeds from public pieces.

use nfv_data::prelude::*;
use nfv_ml::prelude::*;
use nfv_serve::cache::CacheKey;
use nfv_serve::prelude::*;
use nfv_serve::request::request_seed;
use nfv_xai::prelude::*;
use std::time::Duration;

const SEED: u64 = 42;

struct Fixture {
    gbdt: Gbdt,
    packed: SoaForest,
    names: Vec<String>,
    background: Background,
    groups: FeatureGroups,
    rows: Vec<Vec<f64>>,
}

fn fixture() -> Fixture {
    let synth = friedman1(300, 5, 0.1, 11).unwrap();
    let gbdt = Gbdt::fit(
        &synth.data,
        &GbdtParams {
            n_rounds: 15,
            ..Default::default()
        },
        0,
    )
    .unwrap();
    let packed = SoaForest::from_gbdt(&gbdt).unwrap();
    let names = synth.data.names.clone();
    let d = names.len();
    // The same derivation the registry performs at registration.
    let groups = FeatureGroups::per_stage(&names)
        .unwrap_or_else(|_| FeatureGroups::new(vec!["all".into()], vec![0; d]).unwrap());
    Fixture {
        gbdt,
        packed,
        names,
        background: Background::from_dataset(&synth.data, 16, 1).unwrap(),
        groups,
        rows: vec![
            synth.data.row(0).to_vec(),
            synth.data.row(7).to_vec(),
            synth.data.row(13).to_vec(),
        ],
    }
}

fn methods() -> Vec<ExplainMethod> {
    vec![
        ExplainMethod::TreeShap,
        ExplainMethod::KernelShap { n_coalitions: 32 },
        ExplainMethod::Lime { n_samples: 64 },
        ExplainMethod::SamplingShapley {
            n_permutations: 6,
            antithetic: true,
        },
        ExplainMethod::ExactShapley,
        ExplainMethod::GroupedShapley,
        ExplainMethod::Permutation,
    ]
}

/// The library-level computation the serving layer must reproduce bit for
/// bit, seeded exactly as a worker would seed it for `version`.
fn direct(f: &Fixture, x: &[f64], method: ExplainMethod, version: u64, grid: f64) -> Attribution {
    let key = CacheKey::build("m", version, method, x, grid).unwrap();
    let seed = request_seed(SEED, key.stable_hash());
    let base = Some(f.background.expected_output(&f.packed));
    match method {
        ExplainMethod::TreeShap => gbdt_shap(&f.gbdt, x, &f.names).unwrap(),
        ExplainMethod::KernelShap { n_coalitions } => kernel_shap(
            &f.packed,
            x,
            &f.background,
            &f.names,
            &KernelShapConfig {
                n_coalitions,
                ridge: 0.0,
                seed,
            },
        )
        .unwrap(),
        ExplainMethod::Lime { n_samples } => {
            let cfg = LimeConfig {
                n_samples,
                seed,
                ..LimeConfig::default()
            };
            lime(&f.packed, x, &f.background, &f.names, &cfg)
                .unwrap()
                .attribution
        }
        ExplainMethod::SamplingShapley {
            n_permutations,
            antithetic,
        } => sampling_shapley(
            &f.packed,
            x,
            &f.background,
            &f.names,
            &SamplingConfig {
                n_permutations,
                antithetic,
                seed,
            },
        )
        .unwrap(),
        ExplainMethod::ExactShapley => {
            exact_shapley(&f.packed, x, &f.background, &f.names).unwrap()
        }
        ExplainMethod::GroupedShapley => {
            grouped_shapley(&f.packed, x, &f.background, &f.groups).unwrap()
        }
        ExplainMethod::Permutation => {
            instance_permutation(&f.packed, x, &f.background, &f.names, base).unwrap()
        }
        other => unreachable!("not part of this suite: {other:?}"),
    }
}

fn bits(a: &Attribution) -> (Vec<u64>, u64, u64) {
    (
        a.values.iter().map(|v| v.to_bits()).collect(),
        a.base_value.to_bits(),
        a.prediction.to_bits(),
    )
}

/// One full pass: fresh engine + fresh 3-shard cluster.
fn run_arm(f: &Fixture, arm: &str) {
    let cfg = ServeConfig {
        seed: SEED,
        ..ServeConfig::default()
    };
    let engine = ServeEngine::start(cfg);
    let cluster = ServeCluster::start(ClusterConfig {
        shards: 3,
        shard: cfg,
    });
    let ev = engine
        .registry()
        .register(
            "m",
            ServeModel::Gbdt(f.gbdt.clone()),
            f.names.clone(),
            f.background.clone(),
        )
        .unwrap();
    let cv = cluster
        .register(
            "m",
            ServeModel::Gbdt(f.gbdt.clone()),
            f.names.clone(),
            f.background.clone(),
        )
        .unwrap();
    assert_eq!(ev, cv, "fresh registries must assign the same version");

    for method in methods() {
        for x in &f.rows {
            let want = bits(&direct(f, x, method, ev, cfg.quantization_grid));
            let req = || ExplainRequest {
                model_id: "m".into(),
                features: x.clone(),
                method,
                budget: Duration::from_secs(30),
            };
            let via_engine = engine.explain(req()).unwrap();
            let via_cluster = cluster.explain(&req()).unwrap();
            assert!(!via_engine.cache_hit && !via_cluster.cache_hit);
            assert_eq!(via_engine.model_version, ev);
            assert_eq!(via_cluster.model_version, cv);
            assert_eq!(
                bits(&via_engine.attribution),
                want,
                "[{arm}] engine diverged from direct on {method:?}"
            );
            assert_eq!(
                bits(&via_cluster.attribution),
                want,
                "[{arm}] cluster diverged from direct on {method:?}"
            );
        }
    }
    engine.shutdown();
    cluster.shutdown();
}

#[test]
fn cluster_engine_and_direct_are_bit_identical() {
    run_arm(&fixture(), "scalar");
}
