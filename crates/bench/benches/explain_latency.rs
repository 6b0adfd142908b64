//! Criterion bench behind Table 2: per-instance explanation latency by
//! method at the secure-web feature count (d = 14).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nfv_bench::SizedTask;
use nfv_xai::prelude::*;
use std::time::Duration;

fn bench_methods(c: &mut Criterion) {
    let task = SizedTask::new(14, 1);
    let x = task.data.row(7).to_vec();
    let mut g = c.benchmark_group("explain_latency_d14");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    g.bench_function("tree_shap", |b| {
        b.iter(|| forest_shap(&task.forest, &x, &task.names).unwrap())
    });
    g.bench_function("kernel_shap_2d+512", |b| {
        b.iter(|| {
            kernel_shap(
                &task.forest,
                &x,
                &task.background,
                &task.names,
                &KernelShapConfig::for_features(14),
            )
            .unwrap()
        })
    });
    g.bench_function("sampling_200perms", |b| {
        b.iter(|| {
            sampling_shapley(
                &task.forest,
                &x,
                &task.background,
                &task.names,
                &SamplingConfig::default(),
            )
            .unwrap()
        })
    });
    g.bench_function("lime_1000", |b| {
        b.iter(|| {
            lime(
                &task.forest,
                &x,
                &task.background,
                &task.names,
                &LimeConfig::default(),
            )
            .unwrap()
        })
    });
    g.finish();

    // LIME at the serving shape: 256 samples on the packed forest through
    // `Explainer::direct` — plan, one block evaluation, finish — with the
    // base value hinted as a registered model's is.
    let mut g = c.benchmark_group("explain_latency");
    g.sample_size(20).measurement_time(Duration::from_secs(3));
    let base = task.background.expected_output(&task.packed);
    let ctx = ExplainContext {
        model: &task.packed,
        x: &x,
        background: &task.background,
        names: &task.names,
        base_hint: Some(base),
        seed: 7,
    };
    let lime_256 = LimeExplainer { n_samples: 256 };
    let mut ws = CoalitionWorkspace::default();
    g.bench_function("lime_256_packed", |b| {
        b.iter(|| lime_256.direct(&ctx, &mut ws).unwrap())
    });
    g.finish();

    // Exact Shapley's exponential wall, for the d-sweep plot.
    let mut g = c.benchmark_group("exact_shapley_wall");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    for d in [8usize, 10, 12] {
        let task = SizedTask::new(d, 2);
        let x = task.data.row(3).to_vec();
        g.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, _| {
            b.iter(|| exact_shapley(&task.forest, &x, &task.background, &task.names).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_methods);
criterion_main!(benches);
