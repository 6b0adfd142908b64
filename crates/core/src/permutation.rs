//! Permutation feature importance (Breiman, 2001): the *global* baseline —
//! how much does shuffling one column degrade the model's score on a
//! dataset — plus its *per-instance* single-feature ablation counterpart
//! ([`instance_permutation`]), which is plan-capable and fuses into shared
//! [`FusedBlock`]s like the Shapley family.

use crate::background::{Background, CoalitionPlan, CoalitionWorkspace, FusedBlock};
use crate::explanation::Attribution;
use crate::XaiError;
use nfv_data::dataset::{Dataset, Task};
use nfv_ml::metrics;
use nfv_ml::model::Regressor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Configuration for permutation importance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PermutationConfig {
    /// Number of independent shuffles per feature (scores are averaged).
    pub n_repeats: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PermutationConfig {
    fn default() -> Self {
        Self {
            n_repeats: 5,
            seed: 0,
        }
    }
}

/// Per-feature importance: mean score drop across shuffles.
#[derive(Debug, Clone, PartialEq)]
pub struct PermutationImportance {
    /// Feature names from the dataset.
    pub names: Vec<String>,
    /// Mean score drop (baseline − shuffled); higher = more important.
    pub importances: Vec<f64>,
    /// Baseline score of the unshuffled data (R² or ROC-AUC by task).
    pub baseline_score: f64,
}

impl PermutationImportance {
    /// Indices sorted by importance descending.
    pub fn ranking(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.importances.len()).collect();
        idx.sort_by(|&i, &j| {
            self.importances[j]
                .partial_cmp(&self.importances[i])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        idx
    }
}

fn score(task: Task, y: &[f64], preds: &[f64]) -> Result<f64, XaiError> {
    match task {
        Task::Regression => metrics::r2(y, preds),
        Task::BinaryClassification => metrics::roc_auc(y, preds),
    }
    .map_err(|e| XaiError::Numeric(e.to_string()))
}

/// Computes permutation importance of `model` on `data`. The model's
/// outputs are scored with R² (regression) or ROC-AUC (classification —
/// pass a probability surface via [`nfv_ml::model::ProbaSurface`]).
pub fn permutation_importance(
    model: &dyn Regressor,
    data: &Dataset,
    cfg: &PermutationConfig,
) -> Result<PermutationImportance, XaiError> {
    if cfg.n_repeats == 0 {
        return Err(XaiError::Budget("n_repeats must be positive".into()));
    }
    if data.n_rows() < 2 {
        return Err(XaiError::Input("need at least two rows".into()));
    }
    let n = data.n_rows();
    let d = data.n_features();
    let mut preds = vec![0.0; n];
    model.predict_block(data.x_flat(), d, &mut preds);
    let baseline_score = score(data.task, &data.y, &preds)?;

    // Shuffled evaluations go through `predict_block` in bounded blocks:
    // one model call per block of composite rows instead of one per row.
    const BLOCK_ROWS: usize = 4096;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut importances = vec![0.0; d];
    let mut col_idx: Vec<usize> = (0..n).collect();
    let mut block = Vec::with_capacity(BLOCK_ROWS.min(n) * d);
    for j in 0..d {
        let col = data.column(j);
        let mut drop_sum = 0.0;
        for _ in 0..cfg.n_repeats {
            col_idx.shuffle(&mut rng);
            for chunk_start in (0..n).step_by(BLOCK_ROWS) {
                let chunk_end = (chunk_start + BLOCK_ROWS).min(n);
                block.clear();
                for i in chunk_start..chunk_end {
                    let start = block.len();
                    block.extend_from_slice(data.row(i));
                    block[start + j] = col[col_idx[i]];
                }
                model.predict_block(&block, d, &mut preds[chunk_start..chunk_end]);
            }
            drop_sum += baseline_score - score(data.task, &data.y, &preds)?;
        }
        importances[j] = drop_sum / cfg.n_repeats as f64;
    }
    Ok(PermutationImportance {
        names: data.names.clone(),
        importances,
        baseline_score,
    })
}

fn check_instance_shapes(x: &[f64], background: &Background) -> Result<usize, XaiError> {
    let d = x.len();
    if d == 0 {
        return Err(XaiError::Input("empty instance".into()));
    }
    if background.n_features() != d {
        return Err(XaiError::Input(format!(
            "shape mismatch: x has {d} features, background has {}",
            background.n_features()
        )));
    }
    Ok(d)
}

/// The `d + 1` ablation coalitions: coalition `0` is the full feature set
/// (its value is the fused-path estimate of `f(x)`); coalition `k` drops
/// feature `k - 1`, so `phi_j = v(N) - v(N \ {j})`.
fn ablation_membership(k: usize, members: &mut [bool]) {
    for m in members.iter_mut() {
        *m = true;
    }
    if k > 0 {
        members[k - 1] = false;
    }
}

/// Reduces the `d + 1` ablation values to `phi_j = v(N) - v(N \ {j})`.
fn ablation_attribution(v: &[f64], base: f64, names: &[String]) -> Result<Attribution, XaiError> {
    let (full, leave_outs) = (v[0], &v[1..]);
    if names.len() != leave_outs.len() {
        return Err(XaiError::Input(format!(
            "{} names for {} features",
            names.len(),
            leave_outs.len()
        )));
    }
    Ok(Attribution {
        names: names.into(),
        values: leave_outs.iter().map(|&v| full - v).collect(),
        base_value: base,
        prediction: full,
        method: "permutation".into(),
    })
}

/// Per-instance permutation attribution (leave-one-covariate-out):
/// `phi_j = v(N) - v(N \ {j})`, where `v` marginalizes absent features over
/// `background`. Deterministic — no RNG. Unlike Shapley values the result
/// does not satisfy efficiency (`sum(phi)` need not equal
/// `prediction - base_value`), but it costs only `d + 1` coalitions.
///
/// `base_hint` short-circuits the background sweep for `base_value` when
/// the caller already holds `background.expected_output(model)`; passing
/// `None` recomputes it bit-identically.
pub fn instance_permutation(
    model: &dyn Regressor,
    x: &[f64],
    background: &Background,
    names: &[String],
    base_hint: Option<f64>,
) -> Result<Attribution, XaiError> {
    let mut ws = CoalitionWorkspace::default();
    instance_permutation_with(model, x, background, names, base_hint, &mut ws)
}

/// [`instance_permutation`] against a caller-owned workspace.
pub fn instance_permutation_with(
    model: &dyn Regressor,
    x: &[f64],
    background: &Background,
    names: &[String],
    base_hint: Option<f64>,
    ws: &mut CoalitionWorkspace,
) -> Result<Attribution, XaiError> {
    let d = check_instance_shapes(x, background)?;
    let base = base_hint.unwrap_or_else(|| background.expected_output(model));
    let mut v = Vec::with_capacity(d + 1);
    background.coalition_values_into(model, x, d + 1, ablation_membership, ws, &mut v);
    ablation_attribution(&v, base, names)
}

/// The plan half of [`instance_permutation`] for cross-request fusion:
/// the `d + 1` ablation composites stacked into the shared block, not yet
/// evaluated; [`instance_permutation_finish`] reduces them.
#[derive(Debug, Clone)]
pub struct PermutationPlan {
    plan: CoalitionPlan,
    base: f64,
}

impl PermutationPlan {
    /// Composite rows this plan occupies in its block.
    pub fn n_rows(&self) -> usize {
        self.plan.n_rows()
    }
}

/// Builds a [`PermutationPlan`] for `x`, appending its composite rows to
/// `block`. The model is only touched when `base_hint` is `None` (one
/// background sweep for the base value); guards are those of
/// [`instance_permutation_with`].
pub fn instance_permutation_plan(
    model: &dyn Regressor,
    x: &[f64],
    background: &Background,
    base_hint: Option<f64>,
    ws: &mut CoalitionWorkspace,
    block: &mut FusedBlock,
) -> Result<PermutationPlan, XaiError> {
    let d = check_instance_shapes(x, background)?;
    let base = base_hint.unwrap_or_else(|| background.expected_output(model));
    let plan = background.plan_coalitions(x, d + 1, ablation_membership, ws, block);
    Ok(PermutationPlan { plan, base })
}

/// Completes a [`PermutationPlan`] against its evaluated block with the
/// reduction of [`instance_permutation_with`].
pub fn instance_permutation_finish(
    plan: &PermutationPlan,
    block: &FusedBlock,
    names: &[String],
) -> Result<Attribution, XaiError> {
    let mut v = Vec::with_capacity(plan.plan.n_coalitions());
    plan.plan.values_into(block, &mut v);
    ablation_attribution(&v, plan.base, names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfv_data::prelude::*;
    use nfv_ml::model::{FnModel, ProbaSurface};
    use nfv_ml::prelude::*;

    #[test]
    fn strong_feature_outranks_weak_and_noise() {
        let s = linear_gaussian(1_500, 3, 2, 0.1, 71).unwrap();
        let coefs = s.coefficients.clone();
        let model = FnModel::new(5, move |x: &[f64]| {
            x.iter().zip(&coefs).map(|(a, b)| a * b).sum()
        });
        let pi = permutation_importance(&model, &s.data, &PermutationConfig::default()).unwrap();
        assert!(pi.baseline_score > 0.99);
        let rank = pi.ranking();
        assert_eq!(rank[0], 0, "x0 has |w|=4");
        assert_eq!(rank[1], 1, "x1 has |w|=2");
        for noise in [3usize, 4] {
            assert!(
                pi.importances[noise].abs() < 0.01,
                "noise feature {noise}: {}",
                pi.importances[noise]
            );
        }
    }

    #[test]
    fn classification_uses_auc() {
        let s = interaction_xor(1_500, 1, 72).unwrap();
        let g = Gbdt::fit(&s.data, &GbdtParams::default(), 0).unwrap();
        let pi = permutation_importance(&ProbaSurface(&g), &s.data, &PermutationConfig::default())
            .unwrap();
        assert!(pi.baseline_score > 0.9, "auc={}", pi.baseline_score);
        let rank = pi.ranking();
        assert!(
            rank[0] < 2 && rank[1] < 2,
            "interacting pair on top: {rank:?}"
        );
        assert!(pi.importances[2] < pi.importances[rank[1]] * 0.3);
    }

    #[test]
    fn deterministic_per_seed() {
        let s = friedman1(300, 6, 0.2, 73).unwrap();
        let t = DecisionTree::fit(&s.data, &TreeParams::default(), 0).unwrap();
        let a = permutation_importance(&t, &s.data, &PermutationConfig::default()).unwrap();
        let b = permutation_importance(&t, &s.data, &PermutationConfig::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn instance_permutation_on_linear_model_recovers_coefficients() {
        // For f(x) = w·x with a mean-marginalizing background,
        // v(N) − v(N∖{j}) = w_j (x_j − E[x_j]) exactly.
        let s = linear_gaussian(400, 3, 0, 0.0, 75).unwrap();
        let coefs = s.coefficients.clone();
        let w = coefs.clone();
        let model = FnModel::new(3, move |x: &[f64]| {
            x.iter().zip(&coefs).map(|(a, b)| a * b).sum()
        });
        let bg = Background::from_dataset(&s.data, 32, 0).unwrap();
        let x = s.data.row(7);
        let attr = instance_permutation(&model, x, &bg, &s.data.names, None).unwrap();
        assert_eq!(attr.method, "permutation");
        // prediction is v(N): f(x) averaged over |B| identical composites,
        // equal to f(x) up to summation rounding.
        assert!((attr.prediction - model.predict(x)).abs() < 1e-9);
        for j in 0..3 {
            let mean_j: f64 = (0..bg.len()).map(|i| bg.row(i)[j]).sum::<f64>() / bg.len() as f64;
            let expect = w[j] * (x[j] - mean_j);
            assert!(
                (attr.values[j] - expect).abs() < 1e-9,
                "phi_{j} = {} want {expect}",
                attr.values[j]
            );
        }
    }

    #[test]
    fn planned_instance_permutation_is_bit_identical_to_direct() {
        let s = friedman1(200, 6, 0.2, 76).unwrap();
        let model = Gbdt::fit(&s.data, &GbdtParams::default(), 0).unwrap();
        let bg = Background::from_dataset(&s.data, 16, 1).unwrap();
        let mut ws = CoalitionWorkspace::default();
        let mut block = FusedBlock::default();
        for row in [0usize, 5, 11] {
            let x = s.data.row(row).to_vec();
            let direct =
                instance_permutation_with(&model, &x, &bg, &s.data.names, None, &mut ws).unwrap();
            block.clear();
            let plan =
                instance_permutation_plan(&model, &x, &bg, None, &mut ws, &mut block).unwrap();
            assert_eq!(plan.n_rows(), block.n_rows());
            block.evaluate(&model);
            let fused = instance_permutation_finish(&plan, &block, &s.data.names).unwrap();
            assert_eq!(direct.base_value.to_bits(), fused.base_value.to_bits());
            assert_eq!(direct.prediction.to_bits(), fused.prediction.to_bits());
            for (a, b) in direct.values.iter().zip(&fused.values) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn instance_permutation_guards() {
        let s = friedman1(100, 5, 0.2, 77).unwrap();
        let t = DecisionTree::fit(&s.data, &TreeParams::default(), 0).unwrap();
        let bg = Background::from_dataset(&s.data, 8, 0).unwrap();
        let names = s.data.names.clone();
        assert!(instance_permutation(&t, &[], &bg, &names, None).is_err());
        assert!(instance_permutation(&t, &[0.0; 4], &bg, &names, None).is_err());
        assert!(instance_permutation(&t, s.data.row(0), &bg, &names[..3], None).is_err());
        let mut ws = CoalitionWorkspace::default();
        let mut block = FusedBlock::default();
        let plan =
            instance_permutation_plan(&t, s.data.row(0), &bg, None, &mut ws, &mut block).unwrap();
        block.evaluate(&t);
        assert!(instance_permutation_finish(&plan, &block, &names[..2]).is_err());
    }

    #[test]
    fn guards() {
        let s = friedman1(100, 5, 0.2, 74).unwrap();
        let t = DecisionTree::fit(&s.data, &TreeParams::default(), 0).unwrap();
        assert!(permutation_importance(
            &t,
            &s.data,
            &PermutationConfig {
                n_repeats: 0,
                seed: 0
            }
        )
        .is_err());
        let tiny = s.data.take_rows(&[0]).unwrap();
        assert!(permutation_importance(&t, &tiny, &PermutationConfig::default()).is_err());
    }
}
