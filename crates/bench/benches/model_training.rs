//! Criterion bench behind Table 1: training cost of each NFV-management
//! model on the fluid sweep dataset, and the serial forest fits of the
//! serving benchmark's setup and retrain epochs.

use criterion::{criterion_group, criterion_main, Criterion};
use nfv_bench::Fixture;
use nfv_data::prelude::*;
use nfv_ml::prelude::*;
use std::time::Duration;

fn bench_training(c: &mut Criterion) {
    let fixture = Fixture::new(2_000, 3);
    let lat = &fixture.lat_train;
    let sla = &fixture.sla_train;
    let mut g = c.benchmark_group("model_training_2k_rows");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    g.bench_function("ridge", |b| {
        b.iter(|| LinearRegression::fit(lat, 1e-3).unwrap())
    });
    g.bench_function("logistic", |b| {
        b.iter(|| LogisticRegression::fit(sla, 1e-3, 40).unwrap())
    });
    g.bench_function("cart", |b| {
        b.iter(|| DecisionTree::fit(lat, &TreeParams::default(), 0).unwrap())
    });
    g.bench_function("random_forest_60", |b| {
        b.iter(|| {
            RandomForest::fit(
                lat,
                &ForestParams {
                    n_trees: 60,
                    ..ForestParams::default()
                },
                0,
                4,
            )
            .unwrap()
        })
    });
    g.bench_function("gbdt_150", |b| {
        b.iter(|| Gbdt::fit(lat, &GbdtParams::default(), 0).unwrap())
    });
    g.finish();
}

/// The serial forest fits the serving benchmark times: the nfv-perf
/// fixture (6 000 × 14 rows, 50 trees, depth 8; `nfv-ml.forest_fit_ms`)
/// and a `pipeline_retrain` refit on its 600-row window.
fn bench_serial_forest_fit(c: &mut Criterion) {
    let params = ForestParams {
        n_trees: 50,
        tree: TreeParams {
            max_depth: 8,
            ..TreeParams::default()
        },
        sample_fraction: 1.0,
    };
    let lat = |rows| generate_fluid(&SweepConfig::secure_web(1), rows, Target::LatencyP95LogMs);
    let (fixture, window) = (lat(6_000).unwrap(), lat(600).unwrap());
    let mut g = c.benchmark_group("forest_fit_serial");
    g.sample_size(10).measurement_time(Duration::from_secs(4));
    g.bench_function("fixture_6000x14", |b| {
        b.iter(|| RandomForest::fit(&fixture, &params, 1, 1).unwrap())
    });
    g.bench_function("retrain_window_600", |b| {
        b.iter(|| RandomForest::fit(&window, &params, 1, 1).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_training, bench_serial_forest_fit);
criterion_main!(benches);
