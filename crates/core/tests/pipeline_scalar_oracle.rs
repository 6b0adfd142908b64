//! A scalar oracle for the coalition pipeline.
//!
//! Every coalition method is computed one way — plan → evaluate → finish —
//! so `fused_bit_identity` compares that pipeline with itself (stacked vs
//! alone). This file pins it to code that shares nothing with it: scalar
//! `predict`, one composite row at a time. On a forest (the pipeline runs
//! the packed SoA engine, the oracle walks the source trees) and a linear
//! model, for each of the six fusable methods:
//!
//! * every prediction in the evaluated block equals `predict(row)`;
//! * sampling Shapley equals a scalar walk over the same RNG stream;
//! * LIME equals a scalar fit over the same Gaussian draws: one `predict`
//!   per perturbation, the design matrix, R² and effects written out;
//! * kernel / exact / grouped / permutation equal their reductions, written
//!   out here, over [`Background::coalition_value`] of the coalitions found
//!   in their block rows.
//!
//! "Equals" is `to_bits` throughout.

use nfv_data::prelude::*;
use nfv_ml::linalg::{weighted_ridge, Matrix};
use nfv_ml::prelude::*;
use nfv_xai::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const D: usize = 5;
const KERNEL: KernelShapConfig = KernelShapConfig {
    n_coalitions: 24, // sizes 1, 4 and 2 enumerate (20); size 3 gets 4 samples
    ridge: 1e-8,
    seed: 11,
};
const SAMPLING: SamplingConfig = SamplingConfig {
    n_permutations: 5,
    antithetic: true,
    seed: 23,
};
const LIME: LimeConfig = LimeConfig {
    n_samples: 48,
    kernel_width_factor: 0.75,
    ridge: 1e-3,
    perturbation_scale: 1.0,
    seed: 31,
};

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One sampling-Shapley estimate by scalar `predict`, one composite at a
/// time, drawing exactly what `sampling_shapley_plan` draws.
fn scalar_sampling_walks(model: &dyn Regressor, x: &[f64], bg: &Background) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(SAMPLING.seed);
    let mut perm: Vec<usize> = (0..D).collect();
    let mut phi = [0.0; D];
    let mut walks = 0.0;
    for _ in 0..SAMPLING.n_permutations {
        perm.shuffle(&mut rng);
        let b = bg.row(rng.gen_range(0..bg.len())).to_vec();
        let rev: Vec<usize> = perm.iter().rev().copied().collect();
        for order in [&perm, &rev] {
            let mut composite = b.clone();
            let mut prev = model.predict(&composite);
            for &j in order {
                composite[j] = x[j];
                let cur = model.predict(&composite);
                phi[j] += cur - prev;
                prev = cur;
            }
            walks += 1.0;
        }
    }
    phi.iter().map(|p| p / walks).collect()
}

/// A LIME fit by scalar `predict`, one perturbation at a time, drawing
/// exactly what `lime_plan` draws: the perturbed samples (flat), then the
/// attribution values, coefficients, intercept and weighted R².
struct ScalarLime {
    samples: Vec<f64>,
    values: Vec<f64>,
    coefficients: Vec<f64>,
    intercept: f64,
    local_r2: f64,
}

fn scalar_lime(model: &dyn Regressor, x: &[f64], bg: &Background) -> ScalarLime {
    let n_bg = bg.len() as f64;
    let scale: Vec<f64> = (0..D)
        .map(|j| {
            let mean = bg.rows().iter().map(|r| r[j]).sum::<f64>() / n_bg;
            let var = bg.rows().iter().map(|r| (r[j] - mean).powi(2)).sum::<f64>() / n_bg;
            let std = var.sqrt();
            if std > 1e-12 {
                std
            } else {
                1.0
            }
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(LIME.seed);
    let width2 = (LIME.kernel_width_factor * (D as f64).sqrt()).powi(2);
    let (mut samples, mut design, mut y, mut w) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0..LIME.n_samples {
        let mut sample = [0.0; D];
        let mut dist2 = 0.0;
        for j in 0..D {
            let delta = if i == 0 {
                0.0
            } else {
                let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let u2: f64 = rng.gen();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                z * LIME.perturbation_scale * scale[j]
            };
            sample[j] = x[j] + delta;
            dist2 += (delta / scale[j]) * (delta / scale[j]);
        }
        samples.extend_from_slice(&sample);
        design.push(1.0);
        design.extend_from_slice(&sample);
        y.push(model.predict(&sample));
        w.push((-dist2 / width2).exp());
    }
    let n = LIME.n_samples;
    let xm = Matrix::from_vec(n, D + 1, design).unwrap();
    let beta = weighted_ridge(&xm, &y, &w, LIME.ridge).unwrap();
    let fitted: Vec<f64> = (0..n)
        .map(|i| xm.row(i).iter().zip(&beta).map(|(a, b)| a * b).sum())
        .collect();
    let wsum: f64 = w.iter().sum();
    let wmean = y.iter().zip(&w).map(|(y, w)| y * w).sum::<f64>() / wsum;
    let ss_tot: f64 = y.iter().zip(&w).map(|(y, w)| w * (y - wmean).powi(2)).sum();
    let ss_res: f64 = (0..n).map(|i| w[i] * (y[i] - fitted[i]).powi(2)).sum();
    ScalarLime {
        samples,
        values: (0..D).map(|j| beta[j + 1] * (x[j] - bg.means[j])).collect(),
        coefficients: beta[1..].to_vec(),
        intercept: beta[0],
        local_r2: if ss_tot > 0.0 {
            1.0 - ss_res / ss_tot
        } else {
            0.0
        },
    }
}

/// Shapley values from a full table of coalition values indexed by mask.
fn shapley_from_table(v: &[f64], n: usize) -> Vec<f64> {
    let fact: Vec<f64> = (0..=n)
        .scan(1.0, |f, i| {
            *f *= i.max(1) as f64;
            Some(*f)
        })
        .collect();
    let mut phi = vec![0.0; n];
    for mask in 0..v.len() {
        let s = mask.count_ones() as usize;
        for (i, p) in phi.iter_mut().enumerate() {
            if (mask >> i) & 1 == 0 {
                *p += fact[s] * fact[n - s - 1] / fact[n] * (v[mask | (1 << i)] - v[mask]);
            }
        }
    }
    phi
}

/// KernelSHAP's constrained weighted regression over `members` / `values`:
/// a size that appears `C(d, s)` times was enumerated, any other sampled.
fn kernel_from_values(members: &[Vec<bool>], values: &[f64], base: f64, fx: f64) -> Vec<f64> {
    let size = |m: &Vec<bool>| m.iter().filter(|&&b| b).count();
    let binom =
        |s: usize| (0..s.min(D - s)).fold(1.0, |acc, i| acc * (D - i) as f64 / (i + 1) as f64);
    let delta = fx - base;
    let (mut xmat, mut y, mut w) = (Vec::new(), Vec::new(), Vec::new());
    for (m, &v) in members.iter().zip(values) {
        let s = size(m);
        let count = members.iter().filter(|o| size(o) == s).count() as f64;
        w.push(if count == binom(s) {
            (D as f64 - 1.0) / (count * s as f64 * (D - s) as f64)
        } else {
            (D as f64 - 1.0) / (s as f64 * (D - s) as f64) / count
        });
        let z_last = f64::from(u8::from(m[D - 1]));
        xmat.extend(m[..D - 1].iter().map(|&b| f64::from(u8::from(b)) - z_last));
        y.push(v - base - z_last * delta);
    }
    let xm = Matrix::from_vec(members.len(), D - 1, xmat).unwrap();
    let mut phi = weighted_ridge(&xm, &y, &w, KERNEL.ridge).unwrap();
    phi.push(delta - phi.iter().sum::<f64>());
    phi
}

/// The coalitions a plan stacked at `first_row..first_row + n_rows`, read
/// back from the composite rows themselves: feature `j` is a member when
/// every one of the coalition's rows carries `x[j]`.
fn members_in_block(
    block: &FusedBlock,
    first_row: usize,
    n_rows: usize,
    x: &[f64],
    n_bg: usize,
) -> Vec<Vec<bool>> {
    block.rows()[first_row * D..(first_row + n_rows) * D]
        .chunks(n_bg * D)
        .map(|coalition| {
            (0..D)
                .map(|j| {
                    coalition
                        .chunks(D)
                        .all(|row| row[j].to_bits() == x[j].to_bits())
                })
                .collect()
        })
        .collect()
}

/// Runs the six methods stacked in one block on `block_model` and checks
/// each against its scalar oracle on `scalar_model`.
fn check(block_model: &dyn Regressor, scalar_model: &dyn Regressor, data: &Dataset, x: &[f64]) {
    let names = &data.names;
    let bg = Background::from_dataset(data, 8, 1).unwrap();
    for j in 0..D {
        assert!(
            bg.rows().iter().any(|b| b[j] != x[j]),
            "memberships must be readable from the rows"
        );
    }
    let groups = FeatureGroups::new(
        vec!["even".into(), "odd".into()],
        (0..D).map(|j| j % 2).collect(),
    )
    .unwrap();
    let mut ws = CoalitionWorkspace::default();
    let mut block = FusedBlock::default();

    let m = block_model;
    let kernel = kernel_shap_plan(m, x, &bg, &KERNEL, None, &mut ws, &mut block).unwrap();
    let sampling = sampling_shapley_plan(m, x, &bg, &SAMPLING, None, &mut block).unwrap();
    let exact = exact_shapley_plan(x, &bg, &mut ws, &mut block).unwrap();
    let grouped = grouped_shapley_plan(x, &bg, &groups, &mut ws, &mut block).unwrap();
    let permutation = instance_permutation_plan(m, x, &bg, None, &mut ws, &mut block).unwrap();
    let lime = lime_plan(m, x, &bg, &LIME, None, &mut block).unwrap();
    block.evaluate(m);

    // Every prediction in the block is the scalar prediction of its row.
    assert_eq!(block.preds().len(), block.n_rows());
    for (row, pred) in block.rows().chunks(D).zip(block.preds()) {
        assert_eq!(pred.to_bits(), scalar_model.predict(row).to_bits());
    }

    // The scalar value of every coalition a plan stacked, in plan order.
    let scalar_values = |first_row: usize, n_rows: usize| {
        let members = members_in_block(&block, first_row, n_rows, x, bg.len());
        let values: Vec<f64> = members
            .iter()
            .map(|m| bg.coalition_value(scalar_model, x, m))
            .collect();
        (members, values)
    };
    let base = bg.expected_output(scalar_model);
    let fx = scalar_model.predict(x);
    let mut first_row = 0;

    let got = kernel_shap_finish(&kernel, &block, names).unwrap();
    let (members, values) = scalar_values(first_row, kernel.n_rows());
    assert_eq!(members.len(), KERNEL.n_coalitions);
    let want = kernel_from_values(&members, &values, base, fx);
    assert_eq!(bits(&got.values), bits(&want), "kernel-shap");
    assert_eq!(got.base_value.to_bits(), base.to_bits());
    assert_eq!(got.prediction.to_bits(), fx.to_bits());
    first_row += kernel.n_rows();

    let got = sampling_shapley_finish(&sampling, &block, names).unwrap();
    let want = scalar_sampling_walks(scalar_model, x, &bg);
    assert_eq!(bits(&got.values), bits(&want), "sampling-shapley");
    assert_eq!(got.base_value.to_bits(), base.to_bits());
    assert_eq!(got.prediction.to_bits(), fx.to_bits());
    first_row += sampling.n_rows();

    let got = exact_shapley_finish(&exact, &block, names).unwrap();
    let (_, v) = scalar_values(first_row, exact.n_rows());
    assert_eq!(v.len(), 1 << D);
    assert_eq!(bits(&got.values), bits(&shapley_from_table(&v, D)), "exact");
    assert_eq!(got.base_value.to_bits(), v[0].to_bits());
    assert_eq!(got.prediction.to_bits(), v[v.len() - 1].to_bits());
    first_row += exact.n_rows();

    let got = grouped_shapley_finish(&grouped, &block).unwrap();
    let (_, v) = scalar_values(first_row, grouped.n_rows());
    assert_eq!(v.len(), 1 << groups.len());
    let want = shapley_from_table(&v, groups.len());
    assert_eq!(bits(&got.values), bits(&want), "grouped-shapley");
    assert_eq!(got.base_value.to_bits(), v[0].to_bits());
    assert_eq!(got.prediction.to_bits(), v[v.len() - 1].to_bits());
    first_row += grouped.n_rows();

    let got = instance_permutation_finish(&permutation, &block, names).unwrap();
    let (_, v) = scalar_values(first_row, permutation.n_rows());
    let want: Vec<f64> = v[1..].iter().map(|leave_out| v[0] - leave_out).collect();
    assert_eq!(bits(&got.values), bits(&want), "permutation");
    assert_eq!(got.base_value.to_bits(), base.to_bits());
    assert_eq!(got.prediction.to_bits(), v[0].to_bits());
    first_row += permutation.n_rows();

    let got = lime_finish(&lime, &block, names).unwrap();
    let want = scalar_lime(scalar_model, x, &bg);
    assert_eq!(lime.n_rows(), LIME.n_samples);
    assert_eq!(
        bits(&block.rows()[first_row * D..(first_row + lime.n_rows()) * D]),
        bits(&want.samples),
        "lime rows"
    );
    assert_eq!(bits(&got.attribution.values), bits(&want.values), "lime");
    assert_eq!(bits(&got.coefficients), bits(&want.coefficients));
    assert_eq!(got.intercept.to_bits(), want.intercept.to_bits());
    assert_eq!(got.local_r2.to_bits(), want.local_r2.to_bits());
    assert_eq!(got.attribution.base_value.to_bits(), base.to_bits());
    assert_eq!(got.attribution.prediction.to_bits(), fx.to_bits());
    assert_eq!(first_row + lime.n_rows(), block.n_rows());
}

#[test]
fn pipeline_equals_the_scalar_oracle_on_a_forest() {
    let data = friedman1(200, D, 0.1, 7).unwrap().data;
    let params = ForestParams {
        n_trees: 12,
        ..Default::default()
    };
    let forest = RandomForest::fit(&data, &params, 3, 1).unwrap();
    let packed = SoaForest::from_forest(&forest).unwrap();
    for row in [0, 9, 17] {
        check(&packed, &forest, &data, data.row(row));
    }
}

#[test]
fn pipeline_equals_the_scalar_oracle_on_a_linear_model() {
    let data = friedman1(200, D, 0.1, 8).unwrap().data;
    let linear = LinearRegression::fit(&data, 1e-6).unwrap();
    for row in [1, 4, 30] {
        check(&linear, &linear, &data, data.row(row));
    }
}
