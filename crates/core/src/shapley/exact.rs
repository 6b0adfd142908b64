//! Exact Shapley values by full coalition enumeration.
//!
//! Cost: `2^d` coalition values, each averaging over the background set —
//! the gold standard that the sampling methods (and Table 3) are scored
//! against, feasible up to `d ≤ MAX_EXACT_FEATURES`.

use crate::background::{Background, CoalitionPlan, CoalitionWorkspace, FusedBlock};
use crate::explanation::Attribution;
use crate::XaiError;
use nfv_ml::model::Regressor;

/// Hard feature-count cap for exact enumeration (2^20 coalition values).
pub const MAX_EXACT_FEATURES: usize = 20;

/// Folds the full table of coalition values `v` (indexed by membership
/// mask) into Shapley values with the factorial weights.
pub(crate) fn phi_from_mask_values(v: &[f64], d: usize) -> Vec<f64> {
    // Shapley weights w(s) = s!(d−s−1)!/d! indexed by |S| (coalition size
    // before adding the player).
    let mut fact = vec![1.0f64; d + 1];
    for i in 1..=d {
        fact[i] = fact[i - 1] * i as f64;
    }
    let weight = |s: usize| fact[s] * fact[d - s - 1] / fact[d];

    let mut phi = vec![0.0; d];
    for (mask, &v_s) in v.iter().enumerate() {
        let s = mask.count_ones() as usize;
        if s == d {
            continue;
        }
        let w = weight(s);
        for (i, p) in phi.iter_mut().enumerate() {
            if (mask >> i) & 1 == 0 {
                *p += w * (v[mask | (1 << i)] - v_s);
            }
        }
    }
    phi
}

/// Guards; returns the feature count `d` (the method enumerates `2^d`
/// coalitions, coalition index == membership mask).
fn prepare(x: &[f64], background: &Background) -> Result<usize, XaiError> {
    let d = x.len();
    if d == 0 {
        return Err(XaiError::Input(
            "cannot explain a zero-feature input".into(),
        ));
    }
    if d > MAX_EXACT_FEATURES {
        return Err(XaiError::Budget(format!(
            "exact Shapley limited to {MAX_EXACT_FEATURES} features, got {d}"
        )));
    }
    if background.n_features() != d {
        return Err(XaiError::Input(format!(
            "shape mismatch: x has {d}, background {}",
            background.n_features()
        )));
    }
    Ok(d)
}

fn mask_membership(mask: usize, members: &mut [bool]) {
    for (j, m) in members.iter_mut().enumerate() {
        *m = (mask >> j) & 1 == 1;
    }
}

/// Reduces the coalition table `v` (all `2^d` masks) to attributions; base
/// value and prediction fall out of the table's two ends.
fn reduce(v: &[f64], d: usize, names: &[String]) -> Result<Attribution, XaiError> {
    if names.len() != d {
        return Err(XaiError::Input(format!(
            "shape mismatch: x has {d} features, names {}",
            names.len()
        )));
    }
    Ok(Attribution {
        names: names.into(),
        values: phi_from_mask_values(v, d),
        base_value: v[0],
        prediction: v[v.len() - 1],
        method: "exact-shapley".into(),
    })
}

/// Computes exact Shapley values of `model` at `x` against `background`,
/// evaluating the `2^d` coalitions chunk by chunk
/// ([`Background::coalition_values_into`]) so memory stays bounded.
///
/// `names` labels the features of the resulting [`Attribution`].
pub fn exact_shapley(
    model: &dyn Regressor,
    x: &[f64],
    background: &Background,
    names: &[String],
) -> Result<Attribution, XaiError> {
    let d = prepare(x, background)?;
    let mut v = Vec::with_capacity(1usize << d);
    background.coalition_values_into(
        model,
        x,
        1usize << d,
        mask_membership,
        &mut CoalitionWorkspace::default(),
        &mut v,
    );
    reduce(&v, d, names)
}

/// The plan half of exact Shapley for cross-request fusion: all `2^d`
/// coalition composites materialized into the shared block, not yet
/// evaluated. The model is not consulted at all — base value and
/// prediction fall out of the coalition table at finish time.
#[derive(Debug, Clone, Copy)]
pub struct ExactShapPlan {
    plan: CoalitionPlan,
    d: usize,
}

impl ExactShapPlan {
    /// Composite rows this plan occupies in its block.
    pub fn n_rows(&self) -> usize {
        self.plan.n_rows()
    }
}

/// Builds an [`ExactShapPlan`] for `x`, appending its composite rows to
/// `block`. Guards are those of [`exact_shapley`]; then the row cost,
/// `2^d × background.len()` rows stacked at once, is refused with
/// [`XaiError::Budget`] above the workspace chunk (4 096 rows), with
/// nothing appended — [`exact_shapley`] serves such a request chunk by
/// chunk.
pub fn exact_shapley_plan(
    x: &[f64],
    background: &Background,
    ws: &mut CoalitionWorkspace,
    block: &mut FusedBlock,
) -> Result<ExactShapPlan, XaiError> {
    let d = prepare(x, background)?;
    background.check_stackable("exact Shapley", 1usize << d)?;
    let plan = background.plan_coalitions(x, 1usize << d, mask_membership, ws, block);
    Ok(ExactShapPlan { plan, d })
}

/// Completes an [`ExactShapPlan`] against its evaluated block with the
/// reduction of [`exact_shapley`].
pub fn exact_shapley_finish(
    plan: &ExactShapPlan,
    block: &FusedBlock,
    names: &[String],
) -> Result<Attribution, XaiError> {
    let mut v = Vec::with_capacity(1usize << plan.d);
    plan.plan.values_into(block, &mut v);
    reduce(&v, plan.d, names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfv_data::prelude::*;
    use nfv_ml::model::FnModel;

    fn names(d: usize) -> Vec<String> {
        (0..d).map(|i| format!("x{i}")).collect()
    }

    #[test]
    fn linear_model_matches_closed_form() {
        // f(x) = 3x0 − 2x1 + x2; independent background → φ_i = w_i(x_i − μ_i).
        let s = linear_gaussian(400, 3, 0, 0.0, 1).unwrap();
        let bg = Background::from_dataset(&s.data, 100, 0).unwrap();
        let model = FnModel::new(3, |x: &[f64]| 3.0 * x[0] - 2.0 * x[1] + x[2]);
        let x = [1.0, -0.5, 2.0];
        let attr = exact_shapley(&model, &x, &bg, &names(3)).unwrap();
        for i in 0..3 {
            let w = [3.0, -2.0, 1.0][i];
            let expect = w * (x[i] - bg.means[i]);
            assert!(
                (attr.values[i] - expect).abs() < 1e-9,
                "phi[{i}]={} expect {expect}",
                attr.values[i]
            );
        }
        assert!(attr.efficiency_gap().abs() < 1e-9);
    }

    #[test]
    fn symmetry_axiom_holds() {
        // f symmetric in x0, x1; identical inputs ⇒ identical attributions.
        let bg = Background::from_rows(vec![vec![0.0, 0.0, 5.0], vec![1.0, 1.0, 7.0]]).unwrap();
        let model = FnModel::new(3, |x: &[f64]| x[0] * x[1] + x[2]);
        let attr = exact_shapley(&model, &[2.0, 2.0, 1.0], &bg, &names(3)).unwrap();
        assert!(
            (attr.values[0] - attr.values[1]).abs() < 1e-12,
            "{:?}",
            attr.values
        );
    }

    #[test]
    fn dummy_axiom_holds() {
        // Feature 2 never enters f ⇒ φ₂ = 0.
        let bg = Background::from_rows(vec![vec![0.0, 1.0, 9.0], vec![2.0, 3.0, -4.0]]).unwrap();
        let model = FnModel::new(3, |x: &[f64]| x[0].powi(2) + x[1]);
        let attr = exact_shapley(&model, &[3.0, 1.0, 100.0], &bg, &names(3)).unwrap();
        assert!(attr.values[2].abs() < 1e-12);
    }

    #[test]
    fn interaction_credit_is_split_evenly() {
        // f = x0·x1 at x=(1,1) with all-zero background: v({0})=v({1})=0,
        // v({0,1})=1 → φ0 = φ1 = 0.5.
        let bg = Background::from_rows(vec![vec![0.0, 0.0]]).unwrap();
        let model = FnModel::new(2, |x: &[f64]| x[0] * x[1]);
        let attr = exact_shapley(&model, &[1.0, 1.0], &bg, &names(2)).unwrap();
        assert!((attr.values[0] - 0.5).abs() < 1e-12);
        assert!((attr.values[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn efficiency_on_a_nonlinear_model() {
        let s = friedman1(300, 6, 0.1, 2).unwrap();
        let bg = Background::from_dataset(&s.data, 25, 1).unwrap();
        let t = nfv_ml::tree::DecisionTree::fit(&s.data, &Default::default(), 0).unwrap();
        let x = s.data.row(5).to_vec();
        let attr = exact_shapley(&t, &x, &bg, &names(6)).unwrap();
        assert!(
            attr.efficiency_gap().abs() < 1e-9,
            "{}",
            attr.efficiency_gap()
        );
        assert!((attr.prediction - nfv_ml::model::Regressor::predict(&t, &x)).abs() < 1e-9);
    }

    #[test]
    fn a_plan_past_the_chunk_is_refused_with_nothing_stacked() {
        // 2^12 coalitions: one background row stacks 4 096 rows (the
        // chunk), two would stack 8 192.
        let d = 12;
        let model = FnModel::new(d, |x: &[f64]| x.iter().sum());
        let x = vec![1.0; d];
        let one = Background::from_rows(vec![vec![0.0; d]]).unwrap();
        let two = Background::from_rows(vec![vec![0.0; d], vec![0.5; d]]).unwrap();
        let mut ws = CoalitionWorkspace::default();
        let mut block = FusedBlock::default();
        let plan = exact_shapley_plan(&x, &one, &mut ws, &mut block).unwrap();
        assert_eq!(plan.n_rows(), 4096);
        block.clear();
        let err = exact_shapley_plan(&x, &two, &mut ws, &mut block).unwrap_err();
        assert!(matches!(err, XaiError::Budget(_)), "{err:?}");
        assert!(block.is_empty(), "a refused plan appends nothing");
        // Alone, the chunked path serves it.
        let attr = exact_shapley(&model, &x, &two, &names(d)).unwrap();
        assert!(attr.efficiency_gap().abs() < 1e-9);
    }

    #[test]
    fn guards_reject_bad_inputs() {
        let bg = Background::from_rows(vec![vec![0.0, 0.0]]).unwrap();
        let model = FnModel::new(2, |x: &[f64]| x[0]);
        assert!(exact_shapley(&model, &[], &bg, &[]).is_err());
        assert!(
            exact_shapley(&model, &[1.0], &bg, &names(1)).is_err(),
            "bg mismatch"
        );
        assert!(
            exact_shapley(&model, &[1.0, 2.0], &bg, &names(3)).is_err(),
            "names mismatch"
        );
        let big = vec![0.0; MAX_EXACT_FEATURES + 1];
        let bg_big = Background::from_rows(vec![big.clone()]).unwrap();
        let model_big = FnModel::new(big.len(), |x: &[f64]| x[0]);
        assert!(exact_shapley(&model_big, &big, &bg_big, &names(big.len())).is_err());
    }
}
