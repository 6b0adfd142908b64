//! KernelSHAP (Lundberg & Lee, 2017): Shapley values via a weighted linear
//! regression over sampled coalitions, with the efficiency constraint
//! enforced by variable elimination.
//!
//! Coalition sizes are consumed from the outside in (sizes 1 and d−1 carry
//! the most kernel mass); any size that fits completely in the remaining
//! budget is enumerated exactly, the rest are sampled. With a budget
//! ≥ 2^d − 2 the method therefore reproduces exact Shapley values of the
//! interventional value function.

use crate::background::{Background, CoalitionPlan, CoalitionWorkspace, FusedBlock};
use crate::explanation::Attribution;
use crate::{check_plan_values, XaiError};
use nfv_ml::linalg::{weighted_ridge, Matrix};
use nfv_ml::model::Regressor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Configuration for KernelSHAP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelShapConfig {
    /// Coalition evaluation budget (model calls = budget × background size).
    /// The shap library default is `2d + 2048`; ours is `2d + 512`.
    ///
    /// This is a **hard cap**: the selected coalition count never exceeds
    /// it. Sizes that fit entirely in the remaining budget are enumerated
    /// exactly; the leftover budget is split across the remaining sizes by
    /// largest-remainder apportionment of their kernel mass, so the shares
    /// reconcile to the budget instead of each rounding up independently.
    pub n_coalitions: usize,
    /// Ridge regularization of the weighted regression (0 reproduces plain
    /// WLS; small positive values stabilize tiny budgets).
    pub ridge: f64,
    /// RNG seed for coalition sampling.
    pub seed: u64,
}

impl KernelShapConfig {
    /// Default budget for `d` features.
    pub fn for_features(d: usize) -> Self {
        Self {
            n_coalitions: 2 * d + 512,
            ridge: 0.0,
            seed: 0,
        }
    }
}

/// Binomial coefficient as f64 (saturating; d stays small).
fn binom(n: usize, k: usize) -> f64 {
    let k = k.min(n - k);
    let mut acc = 1.0f64;
    for i in 0..k {
        acc = acc * (n - i) as f64 / (i + 1) as f64;
    }
    acc
}

/// Selects the coalitions (membership, kernel weight) for `d` features
/// under `cfg`. The returned count never exceeds `cfg.n_coalitions`: fully
/// enumerable sizes are consumed from the outside in, and the leftover
/// budget is apportioned over the sampled sizes by largest remainder of
/// their exact kernel-mass shares (a share can round to zero; it can never
/// round the total above the budget).
fn select_coalitions(d: usize, cfg: &KernelShapConfig) -> Vec<(Vec<bool>, f64)> {
    // Kernel mass of one subset of size s: (d−1) / (C(d,s)·s·(d−s));
    // total mass of size s: (d−1) / (s·(d−s)).
    let mut coalitions: Vec<(Vec<bool>, f64)> = Vec::new(); // (membership, weight)
    let mut budget = cfg.n_coalitions;
    // Sizes ordered by descending mass: 1, d−1, 2, d−2, …
    let mut sizes: Vec<usize> = Vec::new();
    let mut lo = 1usize;
    let mut hi = d - 1;
    while lo <= hi {
        sizes.push(lo);
        if hi != lo {
            sizes.push(hi);
        }
        lo += 1;
        hi -= 1;
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut sampled_sizes: Vec<usize> = Vec::new();
    for &s in &sizes {
        let count = binom(d, s);
        if count <= budget as f64 {
            // Full enumeration of this size.
            let w = (d as f64 - 1.0) / (count * s as f64 * (d - s) as f64);
            enumerate_size(d, s, &mut |members: &Vec<bool>| {
                coalitions.push((members.clone(), w));
            });
            budget -= count as usize;
        } else {
            sampled_sizes.push(s);
        }
    }
    if !sampled_sizes.is_empty() && budget > 0 {
        // Distribute the remaining budget across the un-enumerated sizes
        // proportionally to their kernel mass, reconciled by largest
        // remainder so Σ shares == budget exactly; within a size subsets
        // are uniform, so each sample carries (size mass / samples of
        // size).
        let masses: Vec<f64> = sampled_sizes
            .iter()
            .map(|&s| (d as f64 - 1.0) / (s as f64 * (d - s) as f64))
            .collect();
        let total_mass: f64 = masses.iter().sum();
        let ideals: Vec<f64> = masses
            .iter()
            .map(|m| budget as f64 * m / total_mass)
            .collect();
        let mut shares: Vec<usize> = ideals.iter().map(|v| v.floor() as usize).collect();
        let mut leftover = budget - shares.iter().sum::<usize>().min(budget);
        // Hand the leftover units to the largest fractional parts (ties
        // broken by size order, i.e. by descending mass).
        let mut order: Vec<usize> = (0..sampled_sizes.len()).collect();
        order.sort_by(|&a, &b| {
            let fa = ideals[a] - ideals[a].floor();
            let fb = ideals[b] - ideals[b].floor();
            fb.total_cmp(&fa).then(a.cmp(&b))
        });
        for i in order {
            if leftover == 0 {
                break;
            }
            shares[i] += 1;
            leftover -= 1;
        }
        let mut idx_pool: Vec<usize> = (0..d).collect();
        for ((&s, &mass), &share) in sampled_sizes.iter().zip(&masses).zip(&shares) {
            if share == 0 {
                continue;
            }
            let w = mass / share as f64;
            for _ in 0..share {
                idx_pool.shuffle(&mut rng);
                let mut members = vec![false; d];
                for &j in idx_pool.iter().take(s) {
                    members[j] = true;
                }
                coalitions.push((members, w));
            }
        }
    }
    coalitions
}

/// Everything KernelSHAP decides before any coalition is evaluated.
#[derive(Debug, Clone)]
struct Prepared {
    /// Selected coalitions with their kernel weights (empty when `d == 1`:
    /// efficiency pins the single attribution down completely).
    coalitions: Vec<(Vec<bool>, f64)>,
    base: f64,
    fx: f64,
    d: usize,
    ridge: f64,
}

/// Guards, base value, `f(x)` and the coalition choice. `base_hint`, when
/// given, must be bit-equal to `background.expected_output(model)`.
fn prepare(
    model: &dyn Regressor,
    x: &[f64],
    background: &Background,
    cfg: &KernelShapConfig,
    base_hint: Option<f64>,
) -> Result<Prepared, XaiError> {
    let d = x.len();
    if d == 0 {
        return Err(XaiError::Input(
            "cannot explain a zero-feature input".into(),
        ));
    }
    if background.n_features() != d {
        return Err(XaiError::Input(format!(
            "shape mismatch: x has {d}, background {}",
            background.n_features()
        )));
    }
    let mut coalitions = Vec::new();
    if d > 1 {
        if cfg.n_coalitions == 0 {
            return Err(XaiError::Budget("n_coalitions must be positive".into()));
        }
        // Never more than the 2^d − 2 proper coalitions are selected.
        let proper = if d < usize::BITS as usize {
            (1usize << d) - 2
        } else {
            usize::MAX
        };
        let rows = cfg
            .n_coalitions
            .min(proper)
            .saturating_mul(background.len());
        check_plan_values("kernel-shap", rows, d)?;
        coalitions = select_coalitions(d, cfg);
        if coalitions.is_empty() {
            return Err(XaiError::Budget(format!(
                "budget {} produced no coalitions for d={d}",
                cfg.n_coalitions
            )));
        }
    }
    Ok(Prepared {
        coalitions,
        base: base_hint.unwrap_or_else(|| background.expected_output(model)),
        fx: model.predict(x),
        d,
        ridge: cfg.ridge,
    })
}

/// Computes KernelSHAP attributions of `model` at `x`.
pub fn kernel_shap(
    model: &dyn Regressor,
    x: &[f64],
    background: &Background,
    names: &[String],
    cfg: &KernelShapConfig,
) -> Result<Attribution, XaiError> {
    let p = prepare(model, x, background, cfg, None)?;
    let mut values = Vec::with_capacity(p.coalitions.len());
    background.coalition_values_into(
        model,
        x,
        p.coalitions.len(),
        |i, members| members.copy_from_slice(&p.coalitions[i].0),
        &mut CoalitionWorkspace::default(),
        &mut values,
    );
    solve_weighted(&p, &values, names)
}

/// The reduction: the weighted regression over the coalition `values` of
/// `p`, with the efficiency constraint enforced by elimination.
///
/// Eliminate φ_{d−1}: with Δ = fx − base,
///   y − base − z_{d−1}·Δ = Σ_{i<d−1} φ_i (z_i − z_{d−1}).
fn solve_weighted(p: &Prepared, values: &[f64], names: &[String]) -> Result<Attribution, XaiError> {
    let d = p.d;
    if names.len() != d {
        return Err(XaiError::Input(format!(
            "shape mismatch: x has {d} features, names {}",
            names.len()
        )));
    }
    let delta = p.fx - p.base;
    // One feature: efficiency pins it down completely.
    let mut phi = vec![delta];
    if d > 1 {
        let n = p.coalitions.len();
        let mut xmat = Vec::with_capacity(n * (d - 1));
        let mut yvec = Vec::with_capacity(n);
        let mut wvec = Vec::with_capacity(n);
        for ((members, w), &v) in p.coalitions.iter().zip(values) {
            let z_last = if members[d - 1] { 1.0 } else { 0.0 };
            for &m in &members[..d - 1] {
                let z_j = if m { 1.0 } else { 0.0 };
                xmat.push(z_j - z_last);
            }
            yvec.push(v - p.base - z_last * delta);
            wvec.push(*w);
        }
        let xm = Matrix::from_vec(n, d - 1, xmat).map_err(|e| XaiError::Numeric(e.to_string()))?;
        phi = weighted_ridge(&xm, &yvec, &wvec, p.ridge)
            .map_err(|e| XaiError::Numeric(e.to_string()))?;
        let last = delta - phi.iter().sum::<f64>();
        phi.push(last);
    }
    Ok(Attribution {
        names: names.into(),
        values: phi,
        base_value: p.base,
        prediction: p.fx,
        method: "kernel-shap".into(),
    })
}

/// The plan half of KernelSHAP for cross-request fusion: the coalitions
/// are selected and their composite rows materialized into a shared block,
/// not yet evaluated. Several requests' plans stack into one block; after
/// a single [`FusedBlock::evaluate`], [`kernel_shap_finish`] completes
/// each request.
#[derive(Debug, Clone)]
pub struct KernelShapPlan {
    prepared: Prepared,
    plan: CoalitionPlan,
}

impl KernelShapPlan {
    /// Composite rows this plan occupies in its block.
    pub fn n_rows(&self) -> usize {
        self.plan.n_rows()
    }

    /// Coalitions selected for this request.
    pub fn n_coalitions(&self) -> usize {
        self.prepared.coalitions.len()
    }
}

/// Builds a [`KernelShapPlan`] for `x`, appending its composite rows to
/// `block`. `base_hint`, when given, must be bit-equal to
/// `background.expected_output(model)` (e.g. cached at model registration);
/// it skips the per-request background sweep without changing any result
/// bit. The model is still consulted for `f(x)` — the single row the plan
/// cannot defer.
///
/// Guards and error cases are those of [`kernel_shap`] (a `d == 1`
/// plan occupies zero rows and resolves fully at finish time).
pub fn kernel_shap_plan(
    model: &dyn Regressor,
    x: &[f64],
    background: &Background,
    cfg: &KernelShapConfig,
    base_hint: Option<f64>,
    ws: &mut CoalitionWorkspace,
    block: &mut FusedBlock,
) -> Result<KernelShapPlan, XaiError> {
    let prepared = prepare(model, x, background, cfg, base_hint)?;
    let plan = background.plan_coalitions(
        x,
        prepared.coalitions.len(),
        |i, members| members.copy_from_slice(&prepared.coalitions[i].0),
        ws,
        block,
    );
    Ok(KernelShapPlan { prepared, plan })
}

/// Completes a [`KernelShapPlan`] against its evaluated block: reduces the
/// plan's prediction rows to coalition values and runs the weighted
/// regression of [`kernel_shap`] on them.
pub fn kernel_shap_finish(
    plan: &KernelShapPlan,
    block: &FusedBlock,
    names: &[String],
) -> Result<Attribution, XaiError> {
    let mut values = Vec::with_capacity(plan.prepared.coalitions.len());
    plan.plan.values_into(block, &mut values);
    solve_weighted(&plan.prepared, &values, names)
}

/// Calls `f` with every size-`s` subset of `0..d` as a membership vector.
fn enumerate_size(d: usize, s: usize, f: &mut impl FnMut(&Vec<bool>)) {
    let mut members = vec![false; d];
    let mut comb: Vec<usize> = (0..s).collect();
    loop {
        members.iter_mut().for_each(|m| *m = false);
        for &c in &comb {
            members[c] = true;
        }
        f(&members);
        // Next combination in lexicographic order.
        let mut i = s;
        loop {
            if i == 0 {
                return;
            }
            i -= 1;
            if comb[i] != i + d - s {
                break;
            }
            if i == 0 {
                return;
            }
        }
        comb[i] += 1;
        for j in i + 1..s {
            comb[j] = comb[j - 1] + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapley::exact::exact_shapley;
    use nfv_data::prelude::*;
    use nfv_ml::model::FnModel;

    fn names(d: usize) -> Vec<String> {
        (0..d).map(|i| format!("x{i}")).collect()
    }

    /// A budget that would stage more than `MAX_PLAN_VALUES` is refused
    /// before any coalition is chosen: at d = 30 a huge budget would
    /// otherwise enumerate ~2^30 coalitions, and at d = 80 `2^d` itself
    /// does not fit a word. The default budget still plans at d = 30.
    #[test]
    fn a_plan_past_the_value_cap_is_refused_before_selection() {
        for d in [30usize, 80] {
            let model = FnModel::new(d, |x: &[f64]| x.iter().sum());
            let bg = Background::from_rows(vec![vec![0.0; d]; 4]).unwrap();
            let x = vec![1.0; d];
            for n_coalitions in [1usize << 40, usize::MAX] {
                let cfg = KernelShapConfig {
                    n_coalitions,
                    ridge: 0.0,
                    seed: 0,
                };
                let err = kernel_shap(&model, &x, &bg, &names(d), &cfg).unwrap_err();
                assert!(matches!(err, XaiError::Budget(_)), "d={d}: {err:?}");
            }
        }
        let model = FnModel::new(30, |x: &[f64]| x.iter().sum());
        let bg = Background::from_rows(vec![vec![0.0; 30]; 4]).unwrap();
        let cfg = KernelShapConfig::for_features(30);
        assert!(kernel_shap(&model, &[1.0; 30], &bg, &names(30), &cfg).is_ok());
    }

    #[test]
    fn full_budget_reproduces_exact_shapley() {
        let s = friedman1(200, 6, 0.1, 7).unwrap();
        let bg = Background::from_dataset(&s.data, 12, 1).unwrap();
        let t = nfv_ml::tree::DecisionTree::fit(&s.data, &Default::default(), 0).unwrap();
        let x = s.data.row(3).to_vec();
        let exact = exact_shapley(&t, &x, &bg, &names(6)).unwrap();
        let kernel = kernel_shap(
            &t,
            &x,
            &bg,
            &names(6),
            &KernelShapConfig {
                n_coalitions: 1 << 6, // covers all 62 proper coalitions
                ridge: 0.0,
                seed: 0,
            },
        )
        .unwrap();
        for (k, e) in kernel.values.iter().zip(&exact.values) {
            assert!((k - e).abs() < 1e-6, "kernel {k} vs exact {e}");
        }
        assert!(kernel.efficiency_gap().abs() < 1e-9);
    }

    #[test]
    fn small_budget_is_close_and_still_efficient() {
        let s = friedman1(200, 10, 0.1, 8).unwrap();
        let bg = Background::from_dataset(&s.data, 10, 2).unwrap();
        let t = nfv_ml::tree::DecisionTree::fit(&s.data, &Default::default(), 0).unwrap();
        let x = s.data.row(9).to_vec();
        let exact = exact_shapley(&t, &x, &bg, &names(10)).unwrap();
        let kernel = kernel_shap(
            &t,
            &x,
            &bg,
            &names(10),
            &KernelShapConfig {
                n_coalitions: 200,
                ridge: 1e-6,
                seed: 3,
            },
        )
        .unwrap();
        assert!(kernel.efficiency_gap().abs() < 1e-9, "constraint is exact");
        let scale = exact
            .values
            .iter()
            .map(|v| v.abs())
            .fold(0.0f64, f64::max)
            .max(1e-9);
        let mae: f64 = kernel
            .values
            .iter()
            .zip(&exact.values)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / 10.0;
        assert!(mae / scale < 0.15, "relative MAE {}", mae / scale);
    }

    #[test]
    fn single_feature_short_circuit() {
        let bg = Background::from_rows(vec![vec![0.0], vec![2.0]]).unwrap();
        let model = FnModel::new(1, |x: &[f64]| 3.0 * x[0]);
        let a = kernel_shap(
            &model,
            &[4.0],
            &bg,
            &names(1),
            &KernelShapConfig::for_features(1),
        )
        .unwrap();
        assert!((a.values[0] - (12.0 - 3.0)).abs() < 1e-12);
    }

    #[test]
    fn linear_model_matches_closed_form_at_tiny_budget() {
        let s = linear_gaussian(300, 4, 0, 0.0, 9).unwrap();
        let bg = Background::from_dataset(&s.data, 30, 0).unwrap();
        let coefs = s.coefficients.clone();
        let model = FnModel::new(4, move |x: &[f64]| {
            x.iter().zip(&coefs).map(|(a, b)| a * b).sum()
        });
        let x = [0.7, -1.3, 0.2, 2.0];
        let a = kernel_shap(
            &model,
            &x,
            &bg,
            &names(4),
            &KernelShapConfig {
                n_coalitions: 20,
                ridge: 0.0,
                seed: 1,
            },
        )
        .unwrap();
        for (i, &xi) in x.iter().enumerate().take(4) {
            let expect = s.coefficients[i] * (xi - bg.means[i]);
            assert!(
                (a.values[i] - expect).abs() < 1e-6,
                "phi[{i}]={} expect {expect} (linear models are exact at any budget)",
                a.values[i]
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let s = friedman1(150, 8, 0.2, 10).unwrap();
        let bg = Background::from_dataset(&s.data, 8, 1).unwrap();
        let t = nfv_ml::tree::DecisionTree::fit(&s.data, &Default::default(), 0).unwrap();
        let x = s.data.row(1).to_vec();
        let cfg = KernelShapConfig {
            n_coalitions: 64,
            ridge: 1e-6,
            seed: 42,
        };
        let a = kernel_shap(&t, &x, &bg, &names(8), &cfg).unwrap();
        let b = kernel_shap(&t, &x, &bg, &names(8), &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn guards_reject_bad_inputs() {
        let bg = Background::from_rows(vec![vec![0.0, 0.0]]).unwrap();
        let model = FnModel::new(2, |x: &[f64]| x[0]);
        assert!(kernel_shap(&model, &[], &bg, &[], &KernelShapConfig::for_features(2)).is_err());
        assert!(kernel_shap(
            &model,
            &[1.0, 2.0],
            &bg,
            &names(2),
            &KernelShapConfig {
                n_coalitions: 0,
                ridge: 0.0,
                seed: 0
            }
        )
        .is_err());
        assert!(kernel_shap(
            &model,
            &[1.0, 2.0, 3.0],
            &bg,
            &names(3),
            &KernelShapConfig::for_features(3)
        )
        .is_err());
    }

    #[test]
    fn budget_is_a_hard_cap_across_dimensions() {
        // Regression: the old sampled-size shares used `.round().max(1.0)`
        // independently per size, so the total could exceed n_coalitions.
        for d in 5..=20usize {
            for budget in [d, 2 * d, 37, 64, 2 * d + 7, 200] {
                let cfg = KernelShapConfig {
                    n_coalitions: budget,
                    ridge: 0.0,
                    seed: d as u64,
                };
                let coalitions = select_coalitions(d, &cfg);
                assert!(
                    coalitions.len() <= budget,
                    "d={d} budget={budget}: selected {}",
                    coalitions.len()
                );
                assert!(!coalitions.is_empty(), "d={d} budget={budget}");
            }
        }
    }

    #[test]
    fn sampled_budget_is_spent_exactly_when_sampling() {
        // When at least one size is sampled, largest-remainder reconciling
        // spends the whole leftover budget (no systematic undershoot).
        let d = 12;
        let cfg = KernelShapConfig {
            n_coalitions: 100,
            ridge: 0.0,
            seed: 3,
        };
        // Sizes 1 and 11 enumerate (12 each); 24 spent, 76 sampled.
        let coalitions = select_coalitions(d, &cfg);
        assert_eq!(coalitions.len(), 100);
    }

    #[test]
    fn planned_kernel_shap_is_bit_identical_to_direct() {
        use crate::background::FusedBlock;
        let s = friedman1(150, 9, 0.2, 13).unwrap();
        let bg = Background::from_dataset(&s.data, 10, 3).unwrap();
        let t = nfv_ml::tree::DecisionTree::fit(&s.data, &Default::default(), 0).unwrap();
        let base_hint = bg.expected_output(&t);
        let mut ws = CoalitionWorkspace::default();
        let mut block = FusedBlock::default();
        // Three requests (different inputs, seeds, and budgets) fused into
        // one block must each match their direct computation bit-for-bit.
        let reqs: Vec<(Vec<f64>, KernelShapConfig)> =
            [(0usize, 48usize, 5u64), (4, 64, 9), (7, 32, 2)]
                .iter()
                .map(|&(row, n, seed)| {
                    (
                        s.data.row(row).to_vec(),
                        KernelShapConfig {
                            n_coalitions: n,
                            ridge: 1e-8,
                            seed,
                        },
                    )
                })
                .collect();
        let direct: Vec<Attribution> = reqs
            .iter()
            .map(|(x, cfg)| kernel_shap(&t, x, &bg, &names(9), cfg).unwrap())
            .collect();
        let plans: Vec<KernelShapPlan> = reqs
            .iter()
            .map(|(x, cfg)| {
                kernel_shap_plan(&t, x, &bg, cfg, Some(base_hint), &mut ws, &mut block).unwrap()
            })
            .collect();
        block.evaluate(&t);
        for (p, dir) in plans.iter().zip(&direct) {
            let fused = kernel_shap_finish(p, &block, &names(9)).unwrap();
            assert_eq!(fused.base_value.to_bits(), dir.base_value.to_bits());
            assert_eq!(fused.prediction.to_bits(), dir.prediction.to_bits());
            for (a, b) in fused.values.iter().zip(&dir.values) {
                assert_eq!(a.to_bits(), b.to_bits(), "fusion changed a result bit");
            }
        }
    }

    #[test]
    fn planned_single_feature_and_errors_mirror_direct() {
        use crate::background::FusedBlock;
        let bg = Background::from_rows(vec![vec![0.0], vec![2.0]]).unwrap();
        let model = FnModel::new(1, |x: &[f64]| 3.0 * x[0]);
        let mut ws = CoalitionWorkspace::default();
        let mut block = FusedBlock::default();
        let p = kernel_shap_plan(
            &model,
            &[4.0],
            &bg,
            &KernelShapConfig::for_features(1),
            None,
            &mut ws,
            &mut block,
        )
        .unwrap();
        assert_eq!(p.n_rows(), 0, "d=1 stacks nothing");
        block.evaluate(&model);
        let a = kernel_shap_finish(&p, &block, &names(1)).unwrap();
        assert!((a.values[0] - (12.0 - 3.0)).abs() < 1e-12);
        // Zero budget errors at plan time.
        let bg2 = Background::from_rows(vec![vec![0.0, 0.0]]).unwrap();
        let m2 = FnModel::new(2, |x: &[f64]| x[0]);
        assert!(kernel_shap_plan(
            &m2,
            &[1.0, 2.0],
            &bg2,
            &KernelShapConfig {
                n_coalitions: 0,
                ridge: 0.0,
                seed: 0
            },
            None,
            &mut ws,
            &mut block,
        )
        .is_err());
    }

    #[test]
    fn enumerate_size_yields_binomial_count() {
        let mut n = 0;
        enumerate_size(6, 3, &mut |m: &Vec<bool>| {
            assert_eq!(m.iter().filter(|&&b| b).count(), 3);
            n += 1;
        });
        assert_eq!(n, 20);
        let mut n1 = 0;
        enumerate_size(5, 1, &mut |_| n1 += 1);
        assert_eq!(n1, 5);
        let mut n4 = 0;
        enumerate_size(5, 4, &mut |_| n4 += 1);
        assert_eq!(n4, 5);
    }
}
