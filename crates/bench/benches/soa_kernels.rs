//! The SoA traversal kernel on the serve hot path's block shape: one
//! 64-coalition × 12-row composite block at d ∈ {8, 14, 20}, plus a
//! fused-replay case with duplicate composite rows that the adjacent-dedup
//! pass collapses, plus the raw ensembles' own `predict_block` across the
//! pack threshold. (The group and the `scalar_*` ids keep the names they
//! had when the kernel had rivals, so EXPERIMENTS' history stays
//! comparable.)

use criterion::{criterion_group, criterion_main, Criterion};
use nfv_bench::SizedTask;
use nfv_ml::prelude::*;
use nfv_xai::prelude::*;
use std::time::Duration;

/// Deterministic pseudo-random memberships spanning all coalition sizes
/// (the same construction as the `coalition_eval_d14_forest50` group).
fn coalitions(d: usize) -> Vec<Vec<bool>> {
    (0..64u64)
        .map(|i| {
            let bits = (i + 1)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(i as u32);
            (0..d).map(|j| (bits >> j) & 1 == 1).collect()
        })
        .collect()
}

/// One 64×12 coalition block per iteration — the exact shape
/// `coalition_values` hands the engine on the serve hot path — so these
/// medians are directly comparable with
/// `coalition_eval_d14_forest50/batched_block_64x12`.
fn bench_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("soa_kernels");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    for d in [8usize, 14, 20] {
        let task = SizedTask::new(d, 1);
        let x = task.data.row(3).to_vec();
        let memberships = coalitions(d);
        let mut ws = CoalitionWorkspace::default();
        g.bench_function(format!("scalar_d{d}_64x12"), |b| {
            b.iter(|| {
                task.background
                    .coalition_values(&task.packed, &x, &memberships, &mut ws)
                    .iter()
                    .sum::<f64>()
            })
        });
    }
    g.finish();
}

/// The dedup fused-replay case: 8 sampling-Shapley requests whose
/// instances are themselves background rows (the NFV monitoring shape —
/// the telemetry row being explained was also sampled into the background
/// set), planned into one shared block. Walks that draw the matching
/// background row produce runs of bit-identical composites, which
/// `evaluate` collapses before prediction; the setup checks the scattered
/// predictions against one plain `predict_block` over every row.
fn bench_fused_dedup(c: &mut Criterion) {
    let task = SizedTask::new(14, 1);
    let cfg = SamplingConfig {
        n_permutations: 24,
        antithetic: true,
        seed: 7,
    };
    let mut block = FusedBlock::default();
    for i in 0..8 {
        let x: Vec<f64> = task.background.rows()[i % task.background.rows().len()].clone();
        sampling_shapley_plan(&task.packed, &x, &task.background, &cfg, None, &mut block)
            .expect("plan sampling walks");
    }
    let mut g = c.benchmark_group("soa_kernels");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    g.bench_function("fused_sampling_replay_dedup", |b| {
        b.iter(|| {
            block.evaluate(&task.packed);
            block.preds()[0]
        })
    });
    println!(
        "fused dedup: {} of {} rows skipped per evaluate ({:.1}%)",
        block.last_dedup_saved(),
        block.n_rows(),
        100.0 * block.last_dedup_saved() as f64 / block.n_rows() as f64,
    );
    let mut full = vec![0.0; block.n_rows()];
    task.packed
        .predict_block(block.rows(), block.d(), &mut full);
    assert_eq!(
        block.preds().len(),
        full.len(),
        "dedup must scatter back to every row"
    );
    for (a, b) in block.preds().iter().zip(&full) {
        assert_eq!(a.to_bits(), b.to_bits(), "dedup changed a prediction");
    }
    g.finish();
}

/// A raw (unpacked) ensemble's `predict_block` below, at and above
/// `PACK_MIN_ROWS`: the per-row reference walk at 32 rows, pack + kernel
/// at 128 and 512. What a library caller holding a fitted forest or GBDT
/// pays per call; served models never take this path (the registry packs
/// once). DESIGN §9.2 records the sweep that placed the threshold.
fn bench_raw_ensemble_block(c: &mut Criterion) {
    let task = SizedTask::new(14, 1);
    let gbdt = Gbdt::fit(&task.data, &GbdtParams::default(), 1).expect("fit gbdt");
    let d = task.data.n_features();
    let mut g = c.benchmark_group("raw_ensemble_block");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    for (name, model) in [
        ("forest", &task.forest as &dyn Regressor),
        ("gbdt", &gbdt as &dyn Regressor),
    ] {
        for rows in [32usize, 128, 512] {
            let flat: Vec<f64> = (0..rows)
                .flat_map(|i| task.data.row((i * 7) % task.data.n_rows()).to_vec())
                .collect();
            let mut out = vec![0.0; rows];
            g.bench_function(format!("{name}_{rows}"), |b| {
                b.iter(|| {
                    model.predict_block(&flat, d, &mut out);
                    out[0]
                })
            });
        }
    }
    g.finish();
}

criterion_group!(
    soa,
    bench_kernels,
    bench_fused_dedup,
    bench_raw_ensemble_block
);
criterion_main!(soa);
