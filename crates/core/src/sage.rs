//! SAGE — Shapley Additive Global importancE (Covert, Lundberg & Lee,
//! 2020): global feature importance as the Shapley value of each feature's
//! contribution to the model's *predictive performance* (expected loss
//! reduction), rather than to individual predictions.
//!
//! Where mean-|SHAP| says "this feature moves predictions", SAGE says
//! "this feature makes the model *better*" — exactly the question when
//! deciding which telemetry streams are worth exporting at all.

use crate::background::{Background, CoalitionWorkspace};
use crate::XaiError;
use nfv_data::dataset::{Dataset, Task};
use nfv_ml::model::Regressor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;

/// SAGE estimation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SageConfig {
    /// Permutations sampled (each costs `d + 1` loss evaluations over the
    /// sampled rows).
    pub n_permutations: usize,
    /// Rows of the evaluation dataset sampled per permutation.
    pub rows_per_permutation: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SageConfig {
    fn default() -> Self {
        Self {
            n_permutations: 64,
            rows_per_permutation: 32,
            seed: 0,
        }
    }
}

/// Global importance values from SAGE.
#[derive(Debug, Clone, PartialEq)]
pub struct SageImportance {
    /// Feature names from the dataset.
    pub names: Vec<String>,
    /// Per-feature expected loss reduction (higher = more valuable).
    pub values: Vec<f64>,
    /// Loss of the no-information predictor (all features marginalized).
    pub base_loss: f64,
    /// Loss of the full model.
    pub full_loss: f64,
}

impl SageImportance {
    /// Indices sorted by importance descending.
    pub fn ranking(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.values.len()).collect();
        idx.sort_by(|&i, &j| self.values[j].total_cmp(&self.values[i]));
        idx
    }
}

fn loss(task: Task, pred: f64, y: f64) -> f64 {
    match task {
        Task::Regression => (pred - y).powi(2),
        Task::BinaryClassification => {
            let p = pred.clamp(1e-12, 1.0 - 1e-12);
            -(y * p.ln() + (1.0 - y) * (1.0 - p).ln())
        }
    }
}

/// Estimates SAGE values of `model` on `data` by permutation sampling:
/// walk a random feature ordering, revealing features one at a time
/// (marginalizing the rest over the background), and credit each feature
/// with the loss drop its reveal causes.
pub fn sage(
    model: &dyn Regressor,
    data: &Dataset,
    background: &Background,
    cfg: &SageConfig,
) -> Result<SageImportance, XaiError> {
    let d = data.n_features();
    if background.n_features() != d {
        return Err(XaiError::Input(format!(
            "background has {} features, data {d}",
            background.n_features()
        )));
    }
    if cfg.n_permutations == 0 || cfg.rows_per_permutation == 0 {
        return Err(XaiError::Budget(
            "n_permutations and rows_per_permutation must be positive".into(),
        ));
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n = data.n_rows();
    let mut perm: Vec<usize> = (0..d).collect();
    let mut values = vec![0.0; d];
    let mut base_loss_sum = 0.0;
    let mut full_loss_sum = 0.0;
    let mut count = 0.0;
    let mut ws = CoalitionWorkspace::default();
    let mut vals: Vec<f64> = Vec::new();
    for _ in 0..cfg.n_permutations {
        perm.shuffle(&mut rng);
        for _ in 0..cfg.rows_per_permutation {
            let i = rng.gen_range(0..n);
            let x = data.row(i);
            let y = data.y[i];
            // The d + 1 coalitions of one reveal walk ({}, {π₁}, {π₁,π₂},
            // …) evaluated in bulk: the membership buffer starts all-false
            // and persists, so each step just flips one feature on.
            background.coalition_values_into(
                model,
                x,
                d + 1,
                |k, members| {
                    if k > 0 {
                        members[perm[k - 1]] = true;
                    }
                },
                &mut ws,
                &mut vals,
            );
            let mut prev = loss(data.task, vals[0], y);
            base_loss_sum += prev;
            for (k, &j) in perm.iter().enumerate() {
                let cur = loss(data.task, vals[k + 1], y);
                values[j] += prev - cur;
                prev = cur;
            }
            full_loss_sum += prev;
            count += 1.0;
        }
    }
    for v in &mut values {
        *v /= count;
    }
    Ok(SageImportance {
        names: data.names.clone(),
        values,
        base_loss: base_loss_sum / count,
        full_loss: full_loss_sum / count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfv_data::prelude::*;
    use nfv_ml::model::FnModel;

    #[test]
    fn sage_credits_informative_features_only() {
        let s = linear_gaussian(1_000, 2, 2, 0.1, 71).unwrap();
        let coefs = s.coefficients.clone();
        let model = FnModel::new(4, move |x: &[f64]| {
            x.iter().zip(&coefs).map(|(a, b)| a * b).sum()
        });
        let bg = Background::from_dataset(&s.data, 20, 1).unwrap();
        let imp = sage(&model, &s.data, &bg, &SageConfig::default()).unwrap();
        // Informative features reduce loss; noise features hover near 0.
        assert!(
            imp.values[0] > 5.0 * imp.values[2].abs(),
            "{:?}",
            imp.values
        );
        assert!(imp.values[1] > 3.0 * imp.values[3].abs());
        assert_eq!(imp.ranking()[0], 0, "strongest coefficient first");
        // Conservation: values sum to base − full loss.
        let total: f64 = imp.values.iter().sum();
        assert!(
            (total - (imp.base_loss - imp.full_loss)).abs() < 1e-9,
            "total {total} vs {} − {}",
            imp.base_loss,
            imp.full_loss
        );
        assert!(imp.full_loss < imp.base_loss);
    }

    #[test]
    fn sage_on_classification_uses_log_loss() {
        let s = interaction_xor(1_500, 1, 72).unwrap();
        let model = FnModel::new(3, |x: &[f64]| if x[0] * x[1] > 0.0 { 0.95 } else { 0.05 });
        let bg = Background::from_dataset(&s.data, 20, 2).unwrap();
        let imp = sage(&model, &s.data, &bg, &SageConfig::default()).unwrap();
        // Both interacting features matter; the noise one does not.
        assert!(imp.values[0] > 0.05);
        assert!(imp.values[1] > 0.05);
        assert!(imp.values[2].abs() < 0.03, "{:?}", imp.values);
    }

    #[test]
    fn deterministic_per_seed() {
        let s = linear_gaussian(200, 2, 1, 0.1, 73).unwrap();
        let coefs = s.coefficients.clone();
        let model = FnModel::new(3, move |x: &[f64]| {
            x.iter().zip(&coefs).map(|(a, b)| a * b).sum()
        });
        let bg = Background::from_dataset(&s.data, 10, 3).unwrap();
        let cfg = SageConfig {
            n_permutations: 16,
            rows_per_permutation: 8,
            seed: 5,
        };
        let a = sage(&model, &s.data, &bg, &cfg).unwrap();
        let b = sage(&model, &s.data, &bg, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn guards() {
        let s = linear_gaussian(50, 2, 0, 0.1, 74).unwrap();
        let model = FnModel::new(2, |x: &[f64]| x[0]);
        let wrong_bg = Background::from_rows(vec![vec![0.0]]).unwrap();
        assert!(sage(&model, &s.data, &wrong_bg, &SageConfig::default()).is_err());
        let bg = Background::from_dataset(&s.data, 5, 0).unwrap();
        assert!(sage(
            &model,
            &s.data,
            &bg,
            &SageConfig {
                n_permutations: 0,
                ..Default::default()
            }
        )
        .is_err());
    }
}
