//! Random forests: bagged CART trees with per-node feature subsampling,
//! trained in parallel with scoped threads.

use crate::model::{Classifier, Regressor};
use crate::soa::SoaForest;
use crate::tree::{ColumnRanks, DecisionTree, TreeParams};
use crate::MlError;
use nfv_data::dataset::{Dataset, Task};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Forest hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree parameters. If `max_features` is `None`, the forest uses
    /// the standard defaults: `√d` for classification, `d/3` for
    /// regression.
    pub tree: TreeParams,
    /// Bootstrap sample size as a fraction of the training set.
    pub sample_fraction: f64,
}

impl Default for ForestParams {
    fn default() -> Self {
        Self {
            n_trees: 100,
            tree: TreeParams {
                max_depth: 12,
                min_samples_split: 4,
                min_samples_leaf: 2,
                max_features: None,
            },
            sample_fraction: 1.0,
        }
    }
}

/// A fitted random forest. Predictions are the mean of tree outputs, which
/// for classification trees is a well-calibrated vote fraction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomForest {
    /// The fitted trees (exposed for TreeSHAP).
    pub trees: Vec<DecisionTree>,
    /// Feature count at fit time.
    pub n_features: usize,
    /// Task trained on.
    pub task: Task,
}

impl RandomForest {
    /// Fits the forest; trees are trained across `threads` scoped workers
    /// (pass 1 for serial). Deterministic for a given seed regardless of
    /// thread count — each tree's bootstrap and split randomness derive
    /// only from `seed` and the tree index.
    pub fn fit(
        data: &Dataset,
        params: &ForestParams,
        seed: u64,
        threads: usize,
    ) -> Result<RandomForest, MlError> {
        if params.n_trees == 0 {
            return Err(MlError::Shape("forest needs at least one tree".into()));
        }
        if !(params.sample_fraction > 0.0 && params.sample_fraction <= 1.0) {
            return Err(MlError::Shape(format!(
                "sample_fraction {} not in (0, 1]",
                params.sample_fraction
            )));
        }
        let d = data.n_features();
        let mut tree_params = params.tree;
        if tree_params.max_features.is_none() {
            let k = match data.task {
                Task::BinaryClassification => (d as f64).sqrt().round() as usize,
                Task::Regression => d.div_ceil(3),
            };
            tree_params.max_features = Some(k.clamp(1, d));
        }
        let n = data.n_rows();
        let sample_n = ((n as f64) * params.sample_fraction).round().max(1.0) as usize;

        // Every tree sorts the same feature matrix: rank it once.
        let ranks = ColumnRanks::of(data);
        let fit_one = |t: usize| -> Result<DecisionTree, MlError> {
            let mut rng = StdRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9E37_79B9));
            let idx: Vec<usize> = (0..sample_n).map(|_| rng.gen_range(0..n)).collect();
            DecisionTree::fit_ranked(data, &ranks, &idx, &tree_params, rng.gen())
        };

        let threads = threads.max(1).min(params.n_trees);
        let trees: Vec<Result<DecisionTree, MlError>> = if threads == 1 {
            (0..params.n_trees).map(fit_one).collect()
        } else {
            let mut out: Vec<Option<Result<DecisionTree, MlError>>> =
                (0..params.n_trees).map(|_| None).collect();
            let chunk = params.n_trees.div_ceil(threads);
            crossbeam::scope(|s| {
                for (w, slot) in out.chunks_mut(chunk).enumerate() {
                    let fit_one = &fit_one;
                    s.spawn(move |_| {
                        for (off, cell) in slot.iter_mut().enumerate() {
                            *cell = Some(fit_one(w * chunk + off));
                        }
                    });
                }
            })
            .map_err(|_| MlError::Numeric("forest training thread panicked".into()))?;
            out.into_iter()
                .map(|o| o.expect("every slot filled"))
                .collect()
        };
        let trees = trees.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(RandomForest {
            trees,
            n_features: d,
            task: data.task,
        })
    }

    /// Mean of the tree outputs.
    pub fn output(&self, x: &[f64]) -> f64 {
        self.trees.iter().map(|t| t.output(x)).sum::<f64>() / self.trees.len() as f64
    }
}

impl Regressor for RandomForest {
    fn predict(&self, x: &[f64]) -> f64 {
        self.output(x)
    }
    /// Large blocks pack the forest and run the SoA kernel.
    fn predict_block(&self, flat: &[f64], d: usize, out: &mut [f64]) {
        crate::soa::pack_or_walk(self, SoaForest::from_forest, flat, d, out);
    }
    fn n_features(&self) -> usize {
        self.n_features
    }
}

impl Classifier for RandomForest {
    fn predict_proba(&self, x: &[f64]) -> f64 {
        self.output(x).clamp(0.0, 1.0)
    }
    fn n_features(&self) -> usize {
        self.n_features
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use crate::tree::TreeParams;
    use nfv_data::prelude::*;

    fn small_params(n_trees: usize) -> ForestParams {
        ForestParams {
            n_trees,
            tree: TreeParams {
                max_depth: 8,
                ..TreeParams::default()
            },
            sample_fraction: 1.0,
        }
    }

    #[test]
    fn forest_beats_single_tree_on_friedman() {
        let s = friedman1(1_500, 10, 0.5, 11).unwrap();
        let (train, test) = s.data.split(0.3, 2).unwrap();
        let tree = crate::tree::DecisionTree::fit(&train, &TreeParams::default(), 0).unwrap();
        let forest = RandomForest::fit(&train, &small_params(60), 0, 4).unwrap();
        let r2_tree = metrics::r2(
            &test.y,
            &test.rows().map(|r| tree.predict(r)).collect::<Vec<_>>(),
        )
        .unwrap();
        let r2_forest = metrics::r2(
            &test.y,
            &test.rows().map(|r| forest.predict(r)).collect::<Vec<_>>(),
        )
        .unwrap();
        assert!(
            r2_forest > r2_tree,
            "forest {r2_forest} should beat tree {r2_tree}"
        );
        assert!(r2_forest > 0.75, "r2={r2_forest}");
    }

    #[test]
    fn forest_is_deterministic_across_thread_counts() {
        let s = friedman1(400, 6, 0.3, 12).unwrap();
        let serial = RandomForest::fit(&s.data, &small_params(12), 7, 1).unwrap();
        let parallel = RandomForest::fit(&s.data, &small_params(12), 7, 4).unwrap();
        assert_eq!(serial, parallel);
        let other_seed = RandomForest::fit(&s.data, &small_params(12), 8, 4).unwrap();
        assert_ne!(serial, other_seed);
    }

    #[test]
    fn classification_forest_probabilities() {
        let s = interaction_xor(1_500, 2, 13).unwrap();
        let f = RandomForest::fit(&s.data, &small_params(40), 3, 4).unwrap();
        let proba: Vec<f64> = s.data.rows().map(|r| f.predict_proba(r)).collect();
        assert!(proba.iter().all(|p| (0.0..=1.0).contains(p)));
        let auc = metrics::roc_auc(&s.data.y, &proba).unwrap();
        assert!(auc > 0.9, "auc={auc}");
    }

    #[test]
    fn invalid_params_rejected() {
        let s = friedman1(50, 5, 0.1, 14).unwrap();
        let mut p = small_params(0);
        assert!(RandomForest::fit(&s.data, &p, 0, 1).is_err());
        p = small_params(5);
        p.sample_fraction = 0.0;
        assert!(RandomForest::fit(&s.data, &p, 0, 1).is_err());
        p.sample_fraction = 1.5;
        assert!(RandomForest::fit(&s.data, &p, 0, 1).is_err());
    }

    #[test]
    fn default_max_features_by_task() {
        let reg = friedman1(200, 9, 0.2, 15).unwrap();
        let f = RandomForest::fit(&reg.data, &small_params(3), 0, 1).unwrap();
        assert_eq!(f.trees.len(), 3);
        let clf = interaction_xor(200, 7, 16).unwrap(); // d = 9
        let f2 = RandomForest::fit(&clf.data, &small_params(3), 0, 1).unwrap();
        assert_eq!(f2.task, Task::BinaryClassification);
    }
}
