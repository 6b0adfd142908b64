//! Gradient-boosted decision trees: squared loss for regression, logistic
//! loss for binary classification — the strongest tabular model in the
//! suite and the primary subject of the TreeSHAP experiments.

use crate::linear::sigmoid;
use crate::model::{Classifier, Regressor};
use crate::soa::SoaForest;
use crate::tree::{ColumnRanks, DecisionTree, TreeParams};
use crate::MlError;
use nfv_data::dataset::{Dataset, Task};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// GBDT hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GbdtParams {
    /// Boosting rounds.
    pub n_rounds: usize,
    /// Shrinkage per round in (0, 1].
    pub learning_rate: f64,
    /// Per-round tree parameters (shallow trees are standard).
    pub tree: TreeParams,
    /// Stochastic GBDT: fraction of rows used per round, in (0, 1].
    pub subsample: f64,
}

impl Default for GbdtParams {
    fn default() -> Self {
        Self {
            n_rounds: 150,
            learning_rate: 0.1,
            tree: TreeParams {
                max_depth: 4,
                min_samples_split: 8,
                min_samples_leaf: 4,
                max_features: None,
            },
            subsample: 1.0,
        }
    }
}

/// A fitted gradient-boosted ensemble. For classification, tree outputs are
/// summed in *log-odds* space and squashed by the sigmoid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Gbdt {
    /// Fitted trees in boosting order (exposed for TreeSHAP).
    pub trees: Vec<DecisionTree>,
    /// Initial prediction (mean target / prior log-odds).
    pub base_score: f64,
    /// Shrinkage used at fit time.
    pub learning_rate: f64,
    /// Feature count at fit time.
    pub n_features: usize,
    /// Task trained on.
    pub task: Task,
}

impl Gbdt {
    /// Fits by classic gradient boosting: each round fits a regression tree
    /// to the negative gradient of the loss at the current prediction.
    pub fn fit(data: &Dataset, params: &GbdtParams, seed: u64) -> Result<Gbdt, MlError> {
        if params.n_rounds == 0 {
            return Err(MlError::Shape("GBDT needs at least one round".into()));
        }
        if !(params.learning_rate > 0.0 && params.learning_rate <= 1.0) {
            return Err(MlError::Shape(format!(
                "learning_rate {} not in (0, 1]",
                params.learning_rate
            )));
        }
        if !(params.subsample > 0.0 && params.subsample <= 1.0) {
            return Err(MlError::Shape(format!(
                "subsample {} not in (0, 1]",
                params.subsample
            )));
        }
        let n = data.n_rows();
        let base_score = match data.task {
            Task::Regression => data.y.iter().sum::<f64>() / n as f64,
            Task::BinaryClassification => {
                let p = data.positive_fraction().clamp(1e-6, 1.0 - 1e-6);
                (p / (1.0 - p)).ln()
            }
        };
        // Current margin per row, and a scratch dataset whose y we rewrite
        // every round. Whatever the task, a round's targets are continuous
        // residuals, so the scratch copy is a regression dataset: its trees
        // split on variance impurity.
        let mut margin = vec![base_score; n];
        let mut residual_data = data.clone();
        residual_data.task = Task::Regression;
        let ranks = ColumnRanks::of(data);
        let mut rng = StdRng::seed_from_u64(seed);
        let sub_n = ((n as f64) * params.subsample).round().max(1.0) as usize;
        let mut all_rows: Vec<usize> = (0..n).collect();
        let mut trees = Vec::with_capacity(params.n_rounds);
        for round in 0..params.n_rounds {
            // Negative gradient: residual (regression), y − p (logistic).
            {
                let ys = &mut residual_data.y;
                #[allow(clippy::needless_range_loop)] // indexes data, margin in lockstep
                for i in 0..n {
                    ys[i] = match data.task {
                        Task::Regression => data.y[i] - margin[i],
                        Task::BinaryClassification => data.y[i] - sigmoid(margin[i]),
                    };
                }
            }
            let idx: &[usize] = if sub_n < n {
                all_rows.shuffle(&mut rng);
                &all_rows[..sub_n]
            } else {
                &all_rows
            };
            let tree = DecisionTree::fit_ranked(
                &residual_data,
                &ranks,
                idx,
                &params.tree,
                seed ^ (round as u64).wrapping_mul(0x51_7C_C1),
            )?;
            for (i, m) in margin.iter_mut().enumerate() {
                *m += params.learning_rate * tree.output(data.row(i));
            }
            trees.push(tree);
        }
        Ok(Gbdt {
            trees,
            base_score,
            learning_rate: params.learning_rate,
            n_features: data.n_features(),
            task: data.task,
        })
    }

    /// Raw additive margin (regression value / log-odds).
    pub fn margin(&self, x: &[f64]) -> f64 {
        self.base_score + self.learning_rate * self.trees.iter().map(|t| t.output(x)).sum::<f64>()
    }
}

impl Regressor for Gbdt {
    fn predict(&self, x: &[f64]) -> f64 {
        match self.task {
            Task::Regression => self.margin(x),
            Task::BinaryClassification => sigmoid(self.margin(x)),
        }
    }
    /// Large blocks pack the rounds and run the SoA kernel.
    fn predict_block(&self, flat: &[f64], d: usize, out: &mut [f64]) {
        crate::soa::pack_or_walk(self, SoaForest::from_gbdt, flat, d, out);
    }
    fn n_features(&self) -> usize {
        self.n_features
    }
}

impl Classifier for Gbdt {
    fn predict_proba(&self, x: &[f64]) -> f64 {
        sigmoid(self.margin(x))
    }
    fn n_features(&self) -> usize {
        self.n_features
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use nfv_data::prelude::*;

    #[test]
    fn gbdt_fits_friedman_well() {
        let s = friedman1(1_500, 10, 0.5, 21).unwrap();
        let (train, test) = s.data.split(0.3, 3).unwrap();
        let g = Gbdt::fit(&train, &GbdtParams::default(), 0).unwrap();
        let preds: Vec<f64> = test.rows().map(|r| g.predict(r)).collect();
        let r2 = metrics::r2(&test.y, &preds).unwrap();
        assert!(r2 > 0.85, "r2={r2}");
    }

    #[test]
    fn boosting_improves_with_rounds() {
        let s = friedman1(800, 8, 0.4, 22).unwrap();
        let (train, test) = s.data.split(0.3, 4).unwrap();
        let r2_at = |rounds: usize| {
            let g = Gbdt::fit(
                &train,
                &GbdtParams {
                    n_rounds: rounds,
                    ..GbdtParams::default()
                },
                0,
            )
            .unwrap();
            let preds: Vec<f64> = test.rows().map(|r| g.predict(r)).collect();
            metrics::r2(&test.y, &preds).unwrap()
        };
        let short = r2_at(5);
        let long = r2_at(120);
        assert!(long > short + 0.05, "5 rounds {short}, 120 rounds {long}");
    }

    #[test]
    fn classification_gbdt_on_xor() {
        let s = interaction_xor(2_000, 2, 23).unwrap();
        let (train, test) = s.data.split(0.3, 5).unwrap();
        let g = Gbdt::fit(&train, &GbdtParams::default(), 0).unwrap();
        let proba: Vec<f64> = test.rows().map(|r| g.predict_proba(r)).collect();
        let auc = metrics::roc_auc(&test.y, &proba).unwrap();
        assert!(auc > 0.95, "auc={auc}");
        assert!(proba.iter().all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn base_score_matches_prior() {
        let s = friedman1(300, 5, 0.2, 24).unwrap();
        let g = Gbdt::fit(&s.data, &GbdtParams::default(), 0).unwrap();
        let mean = s.data.y.iter().sum::<f64>() / s.data.n_rows() as f64;
        assert!((g.base_score - mean).abs() < 1e-9);
    }

    #[test]
    fn invalid_params_rejected() {
        let s = friedman1(50, 5, 0.1, 25).unwrap();
        let mut p = GbdtParams {
            n_rounds: 0,
            ..GbdtParams::default()
        };
        assert!(Gbdt::fit(&s.data, &p, 0).is_err());
        p.n_rounds = 5;
        p.learning_rate = 0.0;
        assert!(Gbdt::fit(&s.data, &p, 0).is_err());
        p.learning_rate = 0.1;
        p.subsample = 1.2;
        assert!(Gbdt::fit(&s.data, &p, 0).is_err());
    }

    #[test]
    fn subsampled_gbdt_still_learns_and_is_deterministic() {
        let s = friedman1(800, 8, 0.4, 26).unwrap();
        let p = GbdtParams {
            subsample: 0.5,
            n_rounds: 60,
            ..GbdtParams::default()
        };
        let a = Gbdt::fit(&s.data, &p, 9).unwrap();
        let b = Gbdt::fit(&s.data, &p, 9).unwrap();
        assert_eq!(a, b);
        let preds: Vec<f64> = s.data.rows().map(|r| a.predict(r)).collect();
        assert!(metrics::r2(&s.data.y, &preds).unwrap() > 0.7);
    }
}
