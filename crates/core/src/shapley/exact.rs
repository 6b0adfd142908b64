//! Exact Shapley values by full coalition enumeration, and the one
//! enumeration behind every exact method.
//!
//! Exact, grouped (Owen) and interaction Shapley values are one
//! computation read three ways: enumerate the `2^k` player masks, take each
//! coalition's background mean, and reduce the table with factorial
//! weights. [`Enumeration`] names the three readings and owns the one
//! guard, the one mask → membership map, the one plan (refused past the
//! workspace chunk) and the one chunked run
//! ([`Background::coalition_values_into`], so memory stays bounded).
//!
//! Cost: `2^k` coalition values, each averaging over the background set —
//! the gold standard that the sampling methods (and Table 3) are scored
//! against, feasible up to `d ≤ MAX_EXACT_FEATURES`.

use crate::background::{Background, CoalitionPlan, CoalitionWorkspace, FusedBlock};
use crate::explainer::{ExplainContext, ExplainPlan, Explainer};
use crate::explanation::Attribution;
use crate::grouped::{FeatureGroups, MAX_GROUPS};
use crate::interactions::{interaction_matrix, pair_names, MAX_INTERACTION_FEATURES};
use crate::XaiError;
use nfv_ml::model::Regressor;
use std::sync::Arc;

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

/// The one player-count check of the exact methods: `k` players (`unit`)
/// must lie in `min..=cap`. The enumeration's guard and the registry's
/// admission validators both ask it, so both give the same reason.
pub(crate) fn check_players(
    tag: &str,
    unit: &str,
    k: usize,
    min: usize,
    cap: usize,
) -> Result<(), String> {
    if k < min {
        Err(format!("{tag} need at least {min} {unit}, got {k}"))
    } else if k > cap {
        Err(format!("{tag} limited to {cap} {unit}, got {k}"))
    } else {
        Ok(())
    }
}

/// An exact method: what its players are and how its `2^k` coalition
/// table (coalition index == player mask) reduces. Deterministic — the
/// context seed is ignored.
#[derive(Debug, Clone, PartialEq)]
pub enum Enumeration {
    /// `exact-shapley`: each feature is a player; one φ per feature.
    Features,
    /// `grouped-shapley` (Owen values with the trivial within-group
    /// allocation): each feature group is a player, and the attribution is
    /// per group, named by the grouping rather than the feature names.
    Groups(Arc<FeatureGroups>),
    /// `interactions`: each feature is a player, and the table reduces to
    /// the `d×d` [`crate::interactions::InteractionMatrix`], flattened
    /// row-major into a `d²`-entry attribution: entry `(i, j)` is named
    /// `names[i]` on the diagonal and `"a×b"` off it. Each row sums to the
    /// ordinary Shapley value φ_i, so the flattened values still satisfy
    /// efficiency exactly (`Σ = f(x) − E[f]`) and the serving layer's
    /// quantized cache tier and report machinery work unchanged.
    Interactions,
}

impl Enumeration {
    /// The one guard: checks the input's shape and returns the player
    /// count `k` (the method enumerates `2^k` coalitions).
    fn players(&self, x: &[f64], background: &Background) -> Result<usize, XaiError> {
        let d = x.len();
        let (k, unit, min, cap, assigned) = match self {
            Enumeration::Features => (d, "features", 1, MAX_EXACT_FEATURES, d),
            Enumeration::Groups(g) => (g.len(), "groups", 1, MAX_GROUPS, g.assignment.len()),
            Enumeration::Interactions => (d, "features", 2, MAX_INTERACTION_FEATURES, d),
        };
        check_players(self.tag(), unit, k, min, cap).map_err(|why| {
            if k < min {
                XaiError::Input(why)
            } else {
                XaiError::Budget(why)
            }
        })?;
        if d == 0 || background.n_features() != d || assigned != d {
            return Err(XaiError::Input(format!(
                "shape mismatch: x has {d} features, background {}, the players cover {assigned}",
                background.n_features()
            )));
        }
        Ok(k)
    }

    /// The one mask → membership map: a feature is in the coalition when
    /// its player's bit is set (its own bit, or its group's).
    fn membership(&self) -> impl Fn(usize, &mut [bool]) + '_ {
        move |mask, members| match self {
            Enumeration::Groups(g) => {
                for (m, &group) in members.iter_mut().zip(&g.assignment) {
                    *m = (mask >> group) & 1 == 1;
                }
            }
            Enumeration::Features | Enumeration::Interactions => {
                for (j, m) in members.iter_mut().enumerate() {
                    *m = (mask >> j) & 1 == 1;
                }
            }
        }
    }

    /// Explains `x` alone, evaluating the `2^k` coalitions chunk by chunk
    /// on `ws`'s block, so memory stays bounded whatever `2^k × n_bg` is.
    pub(crate) fn explain(
        &self,
        model: &dyn Regressor,
        x: &[f64],
        background: &Background,
        names: &[String],
        ws: &mut CoalitionWorkspace,
    ) -> Result<Attribution, XaiError> {
        let n = 1usize << self.players(x, background)?;
        let mut v = Vec::with_capacity(n);
        background.coalition_values_into(model, x, n, self.membership(), ws, &mut v);
        self.reduce(&v, names)
    }

    /// Builds the plan half for `x`, appending its composite rows to
    /// `block`. After the guard, the row cost — `2^k × background.len()`
    /// rows stacked at once — is refused with [`XaiError::Budget`] above
    /// the workspace chunk (4 096 rows), with nothing appended;
    /// [`Enumeration::explain`] serves such a request chunk by chunk.
    pub(crate) fn stack(
        &self,
        x: &[f64],
        background: &Background,
        ws: &mut CoalitionWorkspace,
        block: &mut FusedBlock,
    ) -> Result<EnumerationPlan, XaiError> {
        let n = 1usize << self.players(x, background)?;
        background.check_stackable(self.tag(), n)?;
        Ok(EnumerationPlan {
            plan: background.plan_coalitions(x, n, self.membership(), ws, block),
            method: self.clone(),
        })
    }

    /// Reduces the coalition table `v` (all `2^k` masks) to the method's
    /// attribution; base value and prediction fall out of the table's two
    /// ends.
    fn reduce(&self, v: &[f64], names: &[String]) -> Result<Attribution, XaiError> {
        let k = v.len().trailing_zeros() as usize;
        let phi = phi_from_mask_values(v, k);
        let (names, values): (Arc<[String]>, _) = match self {
            Enumeration::Groups(g) => (g.names.as_slice().into(), phi),
            _ if names.len() != k => {
                return Err(XaiError::Input(format!(
                    "shape mismatch: x has {k} features, names {}",
                    names.len()
                )))
            }
            Enumeration::Features => (names.into(), phi),
            Enumeration::Interactions => (pair_names(names).into(), interaction_matrix(v, &phi)),
        };
        Ok(Attribution {
            names,
            values,
            base_value: v[0],
            prediction: v[v.len() - 1],
            method: self.tag().into(),
        })
    }
}

impl Explainer for Enumeration {
    fn tag(&self) -> &'static str {
        match self {
            Enumeration::Features => "exact-shapley",
            Enumeration::Groups(_) => "grouped-shapley",
            Enumeration::Interactions => "interactions",
        }
    }
    fn plan(
        &self,
        ctx: &ExplainContext<'_>,
        ws: &mut CoalitionWorkspace,
        block: &mut FusedBlock,
    ) -> Result<Box<dyn ExplainPlan>, XaiError> {
        self.stack(ctx.x, ctx.background, ws, block)
            .map(|p| Box::new(p) as Box<dyn ExplainPlan>)
    }
    /// Chunked: alone, `2^k × n_bg` rows must not be stacked at once.
    fn direct(
        &self,
        ctx: &ExplainContext<'_>,
        ws: &mut CoalitionWorkspace,
    ) -> Result<Attribution, XaiError> {
        self.explain(ctx.model, ctx.x, ctx.background, ctx.names, ws)
    }
}

/// The plan half of an exact method for cross-request fusion: all `2^k`
/// coalition composites stacked into the shared block, not yet evaluated.
/// The model is not consulted at all — base value and prediction fall out
/// of the coalition table at finish time.
#[derive(Debug, Clone)]
pub struct EnumerationPlan {
    plan: CoalitionPlan,
    method: Enumeration,
}

/// The plan half of exact Shapley ([`exact_shapley_plan`]).
pub type ExactShapPlan = EnumerationPlan;

impl EnumerationPlan {
    /// Composite rows this plan occupies in its block.
    pub fn n_rows(&self) -> usize {
        self.plan.n_rows()
    }
}

impl ExplainPlan for EnumerationPlan {
    fn n_rows(&self) -> usize {
        self.plan.n_rows()
    }
    /// `names` labels feature-valued answers; a grouped plan names its
    /// values by its groups.
    fn finish(&self, block: &FusedBlock, names: &[String]) -> Result<Attribution, XaiError> {
        let mut v = Vec::with_capacity(self.plan.n_coalitions());
        self.plan.values_into(block, &mut v);
        self.method.reduce(&v, names)
    }
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
    let mut ws = CoalitionWorkspace::default();
    Enumeration::Features.explain(model, x, background, names, &mut ws)
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
    Enumeration::Features.stack(x, background, ws, block)
}

/// Completes an [`ExactShapPlan`] against its evaluated block with the
/// reduction of [`exact_shapley`].
pub fn exact_shapley_finish(
    plan: &ExactShapPlan,
    block: &FusedBlock,
    names: &[String],
) -> Result<Attribution, XaiError> {
    plan.finish(block, names)
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
        // chunk), two would stack 8 192. The same for every exact method
        // (grouped over 12 singleton groups); alone, each answers chunk by
        // chunk with the bits of the stacked plan.
        let d = 12;
        let model = FnModel::new(d, |x: &[f64]| x.iter().sum::<f64>() + x[0] * x[3]);
        let x: Vec<f64> = (0..d).map(|j| 1.0 + j as f64 / 8.0).collect();
        let one = Background::from_rows(vec![vec![0.0; d]]).unwrap();
        let two = Background::from_rows(vec![vec![0.0; d], vec![0.5; d]]).unwrap();
        let groups = FeatureGroups::new(names(d), (0..d).collect()).unwrap();
        let mut ws = CoalitionWorkspace::default();
        let mut block = FusedBlock::default();
        for method in [
            Enumeration::Features,
            Enumeration::Groups(Arc::new(groups)),
            Enumeration::Interactions,
        ] {
            block.clear();
            let plan = method.stack(&x, &one, &mut ws, &mut block).unwrap();
            assert_eq!(plan.n_rows(), 4096);
            block.evaluate(&model);
            let stacked = plan.finish(&block, &names(d)).unwrap();
            let alone = method
                .explain(&model, &x, &one, &names(d), &mut ws)
                .unwrap();
            assert_eq!(stacked, alone, "{}", method.tag());
            block.clear();
            let err = method.stack(&x, &two, &mut ws, &mut block).unwrap_err();
            assert!(matches!(err, XaiError::Budget(_)), "{err:?}");
            assert!(block.is_empty(), "a refused plan appends nothing");
            let attr = method
                .explain(&model, &x, &two, &names(d), &mut ws)
                .unwrap();
            assert!(attr.efficiency_gap().abs() < 1e-9, "{}", method.tag());
        }
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
