//! Grouped (Owen-style) attributions: Shapley values over *feature groups*.
//!
//! NFV telemetry has natural coalitions — the four metrics of one chain
//! stage rise and fall together — and the operator's question is usually
//! "which *stage* is responsible", not "which counter". Treating each group
//! as a single player and computing exact Shapley values over groups
//! answers that directly, is exact for any model, and needs only `2^G`
//! coalition values for `G` groups (G = chain length + 1, tiny).

use crate::background::{Background, CoalitionPlan, CoalitionWorkspace, FusedBlock};
use crate::explanation::Attribution;
use crate::XaiError;
use nfv_ml::model::Regressor;
use serde::{Deserialize, Serialize};

/// Largest group count accepted by [`grouped_shapley`] — the method
/// enumerates `2^G` coalitions, so this bounds a single explanation at
/// ~16.8M coalition evaluations.
pub const MAX_GROUPS: usize = 24;

/// A partition of the feature space into named groups.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureGroups {
    /// Group names, e.g. `["traffic", "stage 0 (fw)", "stage 1 (ids)"]`.
    pub names: Vec<String>,
    /// `assignment[j]` = index into `names` for feature `j`.
    pub assignment: Vec<usize>,
}

impl FeatureGroups {
    /// Validates and builds a grouping over `d` features.
    pub fn new(names: Vec<String>, assignment: Vec<usize>) -> Result<FeatureGroups, XaiError> {
        if names.is_empty() || assignment.is_empty() {
            return Err(XaiError::Input("empty grouping".into()));
        }
        if let Some(&bad) = assignment.iter().find(|&&g| g >= names.len()) {
            return Err(XaiError::Input(format!(
                "assignment references group {bad} of {}",
                names.len()
            )));
        }
        // Every group must own at least one feature (a player with no
        // features would always get φ = 0 and usually signals a bug).
        #[allow(clippy::needless_range_loop)] // g indexes names and assignment
        for g in 0..names.len() {
            if !assignment.contains(&g) {
                return Err(XaiError::Input(format!(
                    "group '{}' owns no features",
                    names[g]
                )));
            }
        }
        Ok(FeatureGroups { names, assignment })
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when there are no groups (unreachable by construction).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The standard NFV grouping for a telemetry schema produced by
    /// `nfv_data::features::FeatureSchema`: one "traffic" group for the
    /// global columns and one group per chain stage, named from the
    /// per-VNF feature prefixes (e.g. `"1_ids"`).
    pub fn per_stage(feature_names: &[String]) -> Result<FeatureGroups, XaiError> {
        let mut names: Vec<String> = vec!["traffic".into()];
        let mut assignment = Vec::with_capacity(feature_names.len());
        for n in feature_names {
            let parts: Vec<&str> = n.split('_').collect();
            let stage_tag = if parts.len() == 3 && parts[0].parse::<usize>().is_ok() {
                Some(format!("stage {}_{}", parts[0], parts[1]))
            } else {
                None
            };
            match stage_tag {
                Some(tag) => {
                    let g = names.iter().position(|x| *x == tag).unwrap_or_else(|| {
                        names.push(tag);
                        names.len() - 1
                    });
                    assignment.push(g);
                }
                None => assignment.push(0),
            }
        }
        FeatureGroups::new(names, assignment)
    }
}

/// Guards; returns the group count `G` (the method enumerates `2^G`
/// coalitions, coalition index == group mask).
fn prepare(x: &[f64], background: &Background, groups: &FeatureGroups) -> Result<usize, XaiError> {
    let d = x.len();
    if d == 0 {
        return Err(XaiError::Input("empty instance".into()));
    }
    if background.n_features() != d || groups.assignment.len() != d {
        return Err(XaiError::Input(format!(
            "shape mismatch: x {d}, background {}, assignment {}",
            background.n_features(),
            groups.assignment.len()
        )));
    }
    let g = groups.len();
    if g > MAX_GROUPS {
        return Err(XaiError::Budget(format!(
            "grouped Shapley enumerates 2^G coalitions; G = {g} is too large"
        )));
    }
    Ok(g)
}

/// Membership of group mask `mask`: features of in-coalition groups come
/// from `x`.
fn group_membership(groups: &FeatureGroups) -> impl Fn(usize, &mut [bool]) + '_ {
    |mask, members| {
        for (j, m) in members.iter_mut().enumerate() {
            *m = (mask >> groups.assignment[j]) & 1 == 1;
        }
    }
}

/// Reduces the group-coalition table `v` (all `2^G` masks) to per-group
/// attributions.
fn reduce(v: &[f64], group_names: &[String]) -> Attribution {
    Attribution {
        names: group_names.into(),
        values: crate::shapley::exact::phi_from_mask_values(v, group_names.len()),
        base_value: v[0],
        prediction: v[v.len() - 1],
        method: "grouped-shapley".into(),
    }
}

/// Exact Shapley values over feature groups (Owen values with the trivial
/// within-group allocation — the group total is reported, not split),
/// evaluating the `2^G` coalitions chunk by chunk
/// ([`Background::coalition_values_into`]) so memory stays bounded.
pub fn grouped_shapley(
    model: &dyn Regressor,
    x: &[f64],
    background: &Background,
    groups: &FeatureGroups,
) -> Result<Attribution, XaiError> {
    let g = prepare(x, background, groups)?;
    let mut v = Vec::with_capacity(1usize << g);
    background.coalition_values_into(
        model,
        x,
        1usize << g,
        group_membership(groups),
        &mut CoalitionWorkspace::default(),
        &mut v,
    );
    Ok(reduce(&v, &groups.names))
}

/// The plan half of grouped Shapley for cross-request fusion: all `2^G`
/// group-coalition composites stacked into the shared block, not yet
/// evaluated; [`grouped_shapley_finish`] reduces them.
#[derive(Debug, Clone)]
pub struct GroupedShapPlan {
    plan: CoalitionPlan,
    group_names: Vec<String>,
}

impl GroupedShapPlan {
    /// Composite rows this plan occupies in its block.
    pub fn n_rows(&self) -> usize {
        self.plan.n_rows()
    }
}

/// Builds a [`GroupedShapPlan`] for `x`, appending its composite rows to
/// `block`. Guards are those of [`grouped_shapley`].
pub fn grouped_shapley_plan(
    x: &[f64],
    background: &Background,
    groups: &FeatureGroups,
    ws: &mut CoalitionWorkspace,
    block: &mut FusedBlock,
) -> Result<GroupedShapPlan, XaiError> {
    let g = prepare(x, background, groups)?;
    let plan = background.plan_coalitions(x, 1usize << g, group_membership(groups), ws, block);
    Ok(GroupedShapPlan {
        plan,
        group_names: groups.names.clone(),
    })
}

/// Completes a [`GroupedShapPlan`] against its evaluated block with the
/// reduction of [`grouped_shapley`].
pub fn grouped_shapley_finish(
    plan: &GroupedShapPlan,
    block: &FusedBlock,
) -> Result<Attribution, XaiError> {
    let mut v = Vec::with_capacity(plan.plan.n_coalitions());
    plan.plan.values_into(block, &mut v);
    Ok(reduce(&v, &plan.group_names))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapley::exact::exact_shapley;
    use nfv_ml::model::FnModel;

    fn names(d: usize) -> Vec<String> {
        (0..d).map(|i| format!("x{i}")).collect()
    }

    #[test]
    fn grouping_validation() {
        assert!(FeatureGroups::new(vec![], vec![]).is_err());
        assert!(FeatureGroups::new(vec!["a".into()], vec![1]).is_err());
        assert!(
            FeatureGroups::new(vec!["a".into(), "empty".into()], vec![0, 0]).is_err(),
            "group without features"
        );
        let ok = FeatureGroups::new(vec!["a".into(), "b".into()], vec![0, 1, 1]).unwrap();
        assert_eq!(ok.len(), 2);
    }

    #[test]
    fn per_stage_grouping_parses_the_schema() {
        let feature_names: Vec<String> = vec![
            "offered_kpps".into(),
            "payload_bytes".into(),
            "0_fw_cpu".into(),
            "0_fw_queue".into(),
            "1_ids_cpu".into(),
            "1_ids_queue".into(),
        ];
        let g = FeatureGroups::per_stage(&feature_names).unwrap();
        assert_eq!(g.names[0], "traffic");
        assert!(g.names.contains(&"stage 0_fw".to_string()));
        assert!(g.names.contains(&"stage 1_ids".to_string()));
        assert_eq!(g.assignment[0], 0);
        assert_eq!(g.assignment[2], g.assignment[3], "fw metrics share a group");
        assert_ne!(g.assignment[2], g.assignment[4]);
    }

    #[test]
    fn grouped_sums_match_ungrouped_for_group_separable_models() {
        // f = (x0 + x1) + x2² — groups {0,1} and {2} are separable, so the
        // group attribution equals the sum of member attributions.
        let bg = Background::from_rows(vec![
            vec![0.0, 1.0, -1.0],
            vec![2.0, -1.0, 0.5],
            vec![1.0, 0.0, 2.0],
        ])
        .unwrap();
        let model = FnModel::new(3, |x: &[f64]| x[0] + x[1] + x[2] * x[2]);
        let x = [1.5, 2.5, -2.0];
        let groups = FeatureGroups::new(vec!["pair".into(), "solo".into()], vec![0, 0, 1]).unwrap();
        let grouped = grouped_shapley(&model, &x, &bg, &groups).unwrap();
        let ungrouped = exact_shapley(&model, &x, &bg, &names(3)).unwrap();
        assert!((grouped.values[0] - (ungrouped.values[0] + ungrouped.values[1])).abs() < 1e-9);
        assert!((grouped.values[1] - ungrouped.values[2]).abs() < 1e-9);
        assert!(grouped.efficiency_gap().abs() < 1e-9);
    }

    #[test]
    fn within_group_interactions_stay_inside_the_group() {
        // f = x0·x1: ungrouped Shapley splits the interaction between the
        // features; grouping them makes the group carry it entirely and the
        // other group exactly zero.
        let bg = Background::from_rows(vec![vec![0.0, 0.0, 5.0]]).unwrap();
        let model = FnModel::new(3, |x: &[f64]| x[0] * x[1]);
        let groups =
            FeatureGroups::new(vec!["pair".into(), "dummy".into()], vec![0, 0, 1]).unwrap();
        let g = grouped_shapley(&model, &[2.0, 3.0, 1.0], &bg, &groups).unwrap();
        assert!((g.values[0] - 6.0).abs() < 1e-12);
        assert_eq!(g.values[1], 0.0);
    }

    #[test]
    fn efficiency_always_holds() {
        let bg = Background::from_rows(vec![vec![1.0, 2.0, 3.0, 4.0], vec![0.0, 0.0, 0.0, 0.0]])
            .unwrap();
        let model = FnModel::new(4, |x: &[f64]| x[0].sin() * x[1] + x[2] / (1.0 + x[3].abs()));
        let groups = FeatureGroups::new(vec!["a".into(), "b".into()], vec![0, 0, 1, 1]).unwrap();
        let g = grouped_shapley(&model, &[0.3, -1.0, 2.0, 0.5], &bg, &groups).unwrap();
        assert!(g.efficiency_gap().abs() < 1e-9, "{}", g.efficiency_gap());
    }

    #[test]
    fn guards() {
        let bg = Background::from_rows(vec![vec![0.0, 0.0]]).unwrap();
        let model = FnModel::new(2, |x: &[f64]| x[0]);
        let groups = FeatureGroups::new(vec!["a".into()], vec![0, 0]).unwrap();
        assert!(grouped_shapley(&model, &[], &bg, &groups).is_err());
        let wrong = FeatureGroups::new(vec!["a".into()], vec![0]).unwrap();
        assert!(grouped_shapley(&model, &[1.0, 2.0], &bg, &wrong).is_err());
    }
}
