//! Criterion bench behind Figure 6: TreeSHAP latency vs ensemble size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nfv_data::prelude::*;
use nfv_ml::prelude::*;
use nfv_xai::prelude::*;
use std::time::Duration;

fn bench_scalability(c: &mut Criterion) {
    let s = friedman1(800, 10, 0.3, 11).unwrap();
    let mut g = c.benchmark_group("treeshap_vs_trees");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    for n_trees in [10usize, 50, 200] {
        let forest = RandomForest::fit(
            &s.data,
            &ForestParams {
                n_trees,
                ..ForestParams::default()
            },
            0,
            4,
        )
        .unwrap();
        let x = s.data.row(0).to_vec();
        g.bench_with_input(BenchmarkId::from_parameter(n_trees), &n_trees, |b, _| {
            b.iter(|| forest_shap(&forest, &x, &s.data.names).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_scalability);
criterion_main!(benches);
