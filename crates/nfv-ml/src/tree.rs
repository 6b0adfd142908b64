//! CART decision trees (regression and binary classification).
//!
//! The tree is stored as a flat node arena with per-node *cover* (training
//! sample count) — exactly the structure TreeSHAP walks, which is why the
//! internals are public.

use crate::model::{Classifier, Regressor};
use crate::soa::{EnsemblePost, SoaForest};
use crate::MlError;
use nfv_data::dataset::{Dataset, Task};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One node of a fitted tree. Internal nodes route on
/// `x[feature] <= threshold` → left, else right; leaves carry `value`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeNode {
    /// Split feature (meaningless for leaves).
    pub feature: usize,
    /// Split threshold (meaningless for leaves).
    pub threshold: f64,
    /// Arena index of the left child (0 for leaves).
    pub left: u32,
    /// Arena index of the right child (0 for leaves).
    pub right: u32,
    /// Mean target (regression) or positive fraction (classification) of
    /// the training rows reaching this node.
    pub value: f64,
    /// Number of training rows that reached this node.
    pub cover: f64,
    /// Leaf marker.
    pub is_leaf: bool,
}

/// Tree hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum depth (root is depth 0).
    pub max_depth: usize,
    /// Minimum rows required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum rows in each child.
    pub min_samples_leaf: usize,
    /// Features considered per split: `None` = all, `Some(k)` = a random
    /// subset of size `k` (used by random forests).
    pub max_features: Option<usize>,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self {
            max_depth: 8,
            min_samples_split: 4,
            min_samples_leaf: 2,
            max_features: None,
        }
    }
}

/// A fitted CART tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    /// Node arena; index 0 is the root. A fitted tree never changes, so
    /// the arena is shared: cloning a tree — or the forest holding it, as
    /// every registration does — copies a pointer, not the nodes.
    pub nodes: Arc<[TreeNode]>,
    /// Feature count at fit time.
    pub n_features: usize,
    /// Whether values are means (regression) or positive fractions.
    pub task: Task,
}

/// Impurity of a (sum, sum², count) accumulator: variance for regression;
/// gini expressed through sum of y (works because labels are {0,1}).
fn impurity(task: Task, sum: f64, sum_sq: f64, n: f64) -> f64 {
    if n <= 0.0 {
        return 0.0;
    }
    match task {
        Task::Regression => (sum_sq / n - (sum / n).powi(2)).max(0.0),
        Task::BinaryClassification => {
            let p = sum / n;
            2.0 * p * (1.0 - p)
        }
    }
}

impl DecisionTree {
    /// Fits on all rows of `data`.
    pub fn fit(data: &Dataset, params: &TreeParams, seed: u64) -> Result<DecisionTree, MlError> {
        let idx: Vec<usize> = (0..data.n_rows()).collect();
        Self::fit_on(data, &idx, params, seed)
    }

    /// Fits on the row subset `idx` (bootstrap training uses this; indices
    /// may repeat).
    pub fn fit_on(
        data: &Dataset,
        idx: &[usize],
        params: &TreeParams,
        seed: u64,
    ) -> Result<DecisionTree, MlError> {
        Self::fit_ranked(data, &ColumnRanks::of(data), idx, params, seed)
    }

    /// [`DecisionTree::fit_on`] against ranks the caller computed once
    /// (ensembles fit every tree on the same feature matrix). `ranks` must
    /// be [`ColumnRanks::of`] a dataset with `data`'s features; targets
    /// may differ (boosting rewrites them every round).
    pub(crate) fn fit_ranked(
        data: &Dataset,
        ranks: &ColumnRanks,
        idx: &[usize],
        params: &TreeParams,
        seed: u64,
    ) -> Result<DecisionTree, MlError> {
        if idx.is_empty() {
            return Err(MlError::Shape("empty training subset".into()));
        }
        if idx.len() > u32::MAX as usize {
            return Err(MlError::Shape(format!(
                "training subset of {} rows exceeds {}",
                idx.len(),
                u32::MAX
            )));
        }
        if let Some(k) = params.max_features {
            if k == 0 || k > data.n_features() {
                return Err(MlError::Shape(format!(
                    "max_features {k} out of 1..={}",
                    data.n_features()
                )));
            }
        }
        let mut grower = Grower {
            data,
            ranks,
            params,
            rng: StdRng::seed_from_u64(seed),
            nodes: Vec::new(),
            keys: Vec::with_capacity(idx.len()),
        };
        grower.build(&mut idx.to_vec(), 0);
        Ok(DecisionTree {
            nodes: grower.nodes.into(),
            n_features: data.n_features(),
            task: data.task,
        })
    }

    /// Structural check for a tree that did not come from
    /// [`DecisionTree::fit`] (a deserialised model): the arena is
    /// non-empty and every internal node `i` splits on a feature
    /// `< n_features` with both children in `i + 1..nodes.len()` — the
    /// preorder layout `fit` produces. Children strictly after their
    /// parent means every walk ([`DecisionTree::output`],
    /// [`DecisionTree::depth`], TreeSHAP) terminates and stays in range.
    pub fn check_structure(&self) -> Result<(), MlError> {
        let n = self.nodes.len();
        if n == 0 {
            return Err(MlError::Shape("tree with no nodes".into()));
        }
        for (i, node) in self.nodes.iter().enumerate() {
            let after_parent = |c: u32| (c as usize) > i && (c as usize) < n;
            let ok = node.feature < self.n_features
                && after_parent(node.left)
                && after_parent(node.right);
            if !node.is_leaf && !ok {
                return Err(MlError::Shape(format!(
                    "node {i}: feature {} (d = {}) or children {}/{} (of {n} nodes) out of range",
                    node.feature, self.n_features, node.left, node.right
                )));
            }
        }
        Ok(())
    }

    /// Raw tree output for one row (mean / positive fraction of the leaf).
    pub fn output(&self, x: &[f64]) -> f64 {
        let mut i = 0usize;
        loop {
            let node = &self.nodes[i];
            if node.is_leaf {
                return node.value;
            }
            i = if x.get(node.feature).copied().unwrap_or(0.0) <= node.threshold {
                node.left as usize
            } else {
                node.right as usize
            };
        }
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf).count()
    }

    /// Maximum depth actually reached.
    pub fn depth(&self) -> usize {
        // Children sit after their parent ([`DecisionTree::check_structure`]),
        // so one reverse pass has both children's heights before the
        // parent's — no recursion, however deep the tree. A child index
        // that breaks the rule reads as a leaf.
        let mut height = vec![0u32; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate().rev() {
            if !n.is_leaf {
                let of = |c: u32| height.get(c as usize).copied().unwrap_or(0);
                height[i] = 1 + of(n.left).max(of(n.right));
            }
        }
        height.first().map_or(0, |&h| h as usize)
    }
}

/// Dense per-column ranks of a dataset's feature values, computed once per
/// fit: within a column, rows order by rank exactly as they order by value,
/// and equal values (`-0.0 == 0.0` included) share a rank. Split search
/// sorts integer keys built from these instead of re-comparing floats
/// through two row indirections at every node.
pub(crate) struct ColumnRanks {
    /// Column-major: `ranks[f * n_rows + row]`.
    ranks: Vec<u32>,
    n_rows: usize,
}

impl ColumnRanks {
    pub(crate) fn of(data: &Dataset) -> ColumnRanks {
        let (n, d) = (data.n_rows(), data.n_features());
        assert!(n <= u32::MAX as usize, "row ids and ranks are 32-bit");
        let x = data.x_flat();
        let mut ranks = vec![0u32; n * d];
        let mut order: Vec<u32> = Vec::with_capacity(n);
        for (f, column) in ranks.chunks_exact_mut(n.max(1)).enumerate() {
            let value = |row: u32| x[row as usize * d + f];
            order.clear();
            order.extend(0..n as u32);
            order.sort_unstable_by(|&a, &b| value(a).total_cmp(&value(b)));
            let mut rank = 0u32;
            for w in 0..n {
                if w > 0 && value(order[w - 1]) != value(order[w]) {
                    rank += 1;
                }
                column[order[w] as usize] = rank;
            }
        }
        ColumnRanks { ranks, n_rows: n }
    }

    fn column(&self, f: usize) -> &[u32] {
        &self.ranks[f * self.n_rows..(f + 1) * self.n_rows]
    }
}

/// One tree's growth state: what every node of the recursion shares.
struct Grower<'a> {
    data: &'a Dataset,
    ranks: &'a ColumnRanks,
    params: &'a TreeParams,
    rng: StdRng,
    nodes: Vec<TreeNode>,
    /// Split-search scratch, reused by every node: a node's scan is over
    /// before its children are built.
    keys: Vec<u64>,
}

impl Grower<'_> {
    fn leaf(&mut self, value: f64, cover: f64) -> u32 {
        self.nodes.push(TreeNode {
            feature: 0,
            threshold: 0.0,
            left: 0,
            right: 0,
            value,
            cover,
            is_leaf: true,
        });
        (self.nodes.len() - 1) as u32
    }

    /// Recursively builds the subtree over `idx`, returning its arena index.
    fn build(&mut self, idx: &mut [usize], depth: usize) -> u32 {
        let (data, params) = (self.data, self.params);
        let n = idx.len() as f64;
        let sum: f64 = idx.iter().map(|&i| data.y[i]).sum();
        let sum_sq: f64 = idx.iter().map(|&i| data.y[i] * data.y[i]).sum();
        let value = sum / n;
        let node_impurity = impurity(data.task, sum, sum_sq, n);

        if depth >= params.max_depth
            || idx.len() < params.min_samples_split
            || node_impurity <= 1e-12
        {
            return self.leaf(value, n);
        }

        // Candidate features (all, or a fresh random subset per node).
        let d = data.n_features();
        let features: Vec<usize> = match params.max_features {
            None => (0..d).collect(),
            Some(k) => {
                let mut all: Vec<usize> = (0..d).collect();
                all.shuffle(&mut self.rng);
                all.truncate(k);
                all
            }
        };

        // Find the best split: scan each candidate feature in sorted order,
        // moving rows from right to left accumulator. The order is by value,
        // ties by position in `idx`: a key is `rank << 32 | position`, so
        // keys are unique and an unstable integer sort yields exactly the
        // order a stable sort of the values would.
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gain)
        let min_leaf = params.min_samples_leaf.max(1);
        let keys = &mut self.keys;
        for &f in &features {
            let column = self.ranks.column(f);
            keys.clear();
            keys.extend(
                idx.iter()
                    .enumerate()
                    .map(|(pos, &row)| (column[row] as u64) << 32 | pos as u64),
            );
            keys.sort_unstable();
            let row_at = |w: usize| idx[keys[w] as u32 as usize];
            let mut lsum = 0.0;
            let mut lsq = 0.0;
            let mut ln = 0.0;
            let mut rsum = sum;
            let mut rsq = sum_sq;
            let mut rn = n;
            for w in 0..keys.len() - 1 {
                let yi = data.y[row_at(w)];
                lsum += yi;
                lsq += yi * yi;
                ln += 1.0;
                rsum -= yi;
                rsq -= yi * yi;
                rn -= 1.0;
                if keys[w] >> 32 == keys[w + 1] >> 32 {
                    continue; // can't split between equal values
                }
                if (ln as usize) < min_leaf || (rn as usize) < min_leaf {
                    continue;
                }
                let gain = node_impurity
                    - (ln / n) * impurity(data.task, lsum, lsq, ln)
                    - (rn / n) * impurity(data.task, rsum, rsq, rn);
                if gain > best.map_or(1e-12, |(_, _, g)| g) {
                    let xv = data.row(row_at(w))[f];
                    let xn = data.row(row_at(w + 1))[f];
                    best = Some((f, 0.5 * (xv + xn), gain));
                }
            }
        }

        let Some((feature, threshold, _)) = best else {
            return self.leaf(value, n);
        };

        // Partition in place.
        let mid = partition(data, idx, feature, threshold);
        if mid == 0 || mid == idx.len() {
            return self.leaf(value, n);
        }

        // Reserve our slot, then build children.
        self.nodes.push(TreeNode {
            feature,
            threshold,
            left: 0,
            right: 0,
            value,
            cover: n,
            is_leaf: false,
        });
        let me = self.nodes.len() - 1;
        let (lidx, ridx) = idx.split_at_mut(mid);
        let left = self.build(lidx, depth + 1);
        let right = self.build(ridx, depth + 1);
        self.nodes[me].left = left;
        self.nodes[me].right = right;
        me as u32
    }
}

/// Partitions `idx` so rows with `x[f] <= thr` come first; returns the
/// boundary.
fn partition(data: &Dataset, idx: &mut [usize], f: usize, thr: f64) -> usize {
    let mut lo = 0;
    let mut hi = idx.len();
    while lo < hi {
        if data.row(idx[lo])[f] <= thr {
            lo += 1;
        } else {
            hi -= 1;
            idx.swap(lo, hi);
        }
    }
    lo
}

impl Regressor for DecisionTree {
    fn predict(&self, x: &[f64]) -> f64 {
        self.output(x)
    }
    /// A one-tree "ensemble" with mean post-processing divides by 1.0,
    /// which is exact: large blocks pack and run the SoA kernel.
    fn predict_block(&self, flat: &[f64], d: usize, out: &mut [f64]) {
        crate::soa::pack_or_walk(
            self,
            |t| SoaForest::from_trees(std::slice::from_ref(t), EnsemblePost::Mean),
            flat,
            d,
            out,
        );
    }
    fn n_features(&self) -> usize {
        self.n_features
    }
}

impl Classifier for DecisionTree {
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
    use nfv_data::prelude::*;

    #[test]
    fn tree_fits_a_step_function_exactly() {
        // y = 1 if x > 0.5 else 0 — one split suffices.
        let n = 200;
        let x: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let y: Vec<f64> = x.iter().map(|&v| if v > 0.5 { 1.0 } else { 0.0 }).collect();
        let data = Dataset::new(vec!["x".into()], x, y, Task::Regression).unwrap();
        let t = DecisionTree::fit(&data, &TreeParams::default(), 0).unwrap();
        assert!(t.depth() <= 2, "depth={}", t.depth());
        assert_eq!(t.predict(&[0.2]), 0.0);
        assert_eq!(t.predict(&[0.9]), 1.0);
    }

    #[test]
    fn tree_learns_friedman_better_than_mean() {
        let s = friedman1(1_500, 8, 0.2, 4).unwrap();
        let (train, test) = s.data.split(0.3, 1).unwrap();
        let t = DecisionTree::fit(
            &train,
            &TreeParams {
                max_depth: 10,
                ..TreeParams::default()
            },
            0,
        )
        .unwrap();
        let preds: Vec<f64> = test.rows().map(|r| t.predict(r)).collect();
        let r2 = metrics::r2(&test.y, &preds).unwrap();
        assert!(r2 > 0.6, "r2={r2}");
    }

    #[test]
    fn classification_tree_solves_xor() {
        // XOR needs depth ≥ 2 and is invisible to marginal splits — the
        // classic CART success case with enough depth.
        let s = interaction_xor(2_000, 0, 5).unwrap();
        let t = DecisionTree::fit(
            &s.data,
            &TreeParams {
                max_depth: 6,
                ..TreeParams::default()
            },
            0,
        )
        .unwrap();
        let proba: Vec<f64> = s.data.rows().map(|r| t.predict_proba(r)).collect();
        let acc = metrics::accuracy(&s.data.y, &proba).unwrap();
        assert!(acc > 0.9, "acc={acc}");
    }

    #[test]
    fn covers_are_consistent() {
        let s = friedman1(300, 6, 0.2, 6).unwrap();
        let t = DecisionTree::fit(&s.data, &TreeParams::default(), 0).unwrap();
        // Root cover is n; each internal node's cover equals children's sum.
        assert_eq!(t.nodes[0].cover, 300.0);
        for node in t.nodes.iter() {
            if !node.is_leaf {
                let l = &t.nodes[node.left as usize];
                let r = &t.nodes[node.right as usize];
                assert!((node.cover - l.cover - r.cover).abs() < 1e-9);
                assert!(l.cover >= 2.0 && r.cover >= 2.0, "min_samples_leaf");
            }
        }
    }

    #[test]
    fn depth_and_leaf_limits_hold() {
        let s = friedman1(800, 6, 0.2, 7).unwrap();
        let t = DecisionTree::fit(
            &s.data,
            &TreeParams {
                max_depth: 3,
                ..TreeParams::default()
            },
            0,
        )
        .unwrap();
        assert!(t.depth() <= 3);
        assert!(t.n_leaves() <= 8);
    }

    #[test]
    fn cloning_a_tree_shares_its_node_arena() {
        let s = friedman1(200, 5, 0.2, 3).unwrap();
        let t = DecisionTree::fit(&s.data, &TreeParams::default(), 0).unwrap();
        let copy = t.clone();
        assert!(Arc::ptr_eq(&t.nodes, &copy.nodes));
        assert_eq!(t, copy);
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let data = Dataset::new(
            vec!["x".into()],
            vec![1.0, 2.0, 3.0],
            vec![5.0, 5.0, 5.0],
            Task::Regression,
        )
        .unwrap();
        let t = DecisionTree::fit(&data, &TreeParams::default(), 0).unwrap();
        assert_eq!(t.nodes.len(), 1);
        assert!(t.nodes[0].is_leaf);
        assert_eq!(t.predict(&[2.0]), 5.0);
    }

    #[test]
    fn feature_subsampling_is_validated_and_seeded() {
        let s = friedman1(300, 8, 0.2, 8).unwrap();
        let bad = TreeParams {
            max_features: Some(0),
            ..TreeParams::default()
        };
        assert!(DecisionTree::fit(&s.data, &bad, 0).is_err());
        let sub = TreeParams {
            max_features: Some(3),
            ..TreeParams::default()
        };
        let a = DecisionTree::fit(&s.data, &sub, 42).unwrap();
        let b = DecisionTree::fit(&s.data, &sub, 42).unwrap();
        assert_eq!(a, b, "same seed, same tree");
    }

    #[test]
    fn bootstrap_subset_fit() {
        let s = friedman1(200, 6, 0.2, 9).unwrap();
        let idx: Vec<usize> = (0..100).map(|i| i % 50).collect(); // repeats
        let t = DecisionTree::fit_on(&s.data, &idx, &TreeParams::default(), 0).unwrap();
        assert_eq!(t.nodes[0].cover, 100.0);
        assert!(DecisionTree::fit_on(&s.data, &[], &TreeParams::default(), 0).is_err());
    }

    /// The split search this module shipped before [`ColumnRanks`]: a stable
    /// closure sort of the row indices by feature value at every node. Kept
    /// verbatim as the oracle the rank-keyed builder must reproduce node for
    /// node.
    fn reference_build(
        data: &Dataset,
        idx: &mut [usize],
        params: &TreeParams,
        rng: &mut StdRng,
        depth: usize,
        nodes: &mut Vec<TreeNode>,
    ) -> u32 {
        let n = idx.len() as f64;
        let sum: f64 = idx.iter().map(|&i| data.y[i]).sum();
        let sum_sq: f64 = idx.iter().map(|&i| data.y[i] * data.y[i]).sum();
        let value = sum / n;
        let node_impurity = impurity(data.task, sum, sum_sq, n);

        let make_leaf = |nodes: &mut Vec<TreeNode>| -> u32 {
            nodes.push(TreeNode {
                feature: 0,
                threshold: 0.0,
                left: 0,
                right: 0,
                value,
                cover: n,
                is_leaf: true,
            });
            (nodes.len() - 1) as u32
        };

        if depth >= params.max_depth
            || idx.len() < params.min_samples_split
            || node_impurity <= 1e-12
        {
            return make_leaf(nodes);
        }

        // Candidate features (all, or a fresh random subset per node).
        let d = data.n_features();
        let features: Vec<usize> = match params.max_features {
            None => (0..d).collect(),
            Some(k) => {
                let mut all: Vec<usize> = (0..d).collect();
                all.shuffle(rng);
                all.truncate(k);
                all
            }
        };

        // Find the best split: scan each candidate feature in sorted order,
        // moving rows from right to left accumulator.
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gain)
        let min_leaf = params.min_samples_leaf.max(1);
        let mut order: Vec<usize> = Vec::with_capacity(idx.len());
        for &f in &features {
            order.clear();
            order.extend_from_slice(idx);
            order.sort_by(|&a, &b| {
                data.row(a)[f]
                    .partial_cmp(&data.row(b)[f])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut lsum = 0.0;
            let mut lsq = 0.0;
            let mut ln = 0.0;
            let mut rsum = sum;
            let mut rsq = sum_sq;
            let mut rn = n;
            for w in 0..order.len() - 1 {
                let yi = data.y[order[w]];
                lsum += yi;
                lsq += yi * yi;
                ln += 1.0;
                rsum -= yi;
                rsq -= yi * yi;
                rn -= 1.0;
                let xv = data.row(order[w])[f];
                let xn = data.row(order[w + 1])[f];
                if xv == xn {
                    continue; // can't split between equal values
                }
                if (ln as usize) < min_leaf || (rn as usize) < min_leaf {
                    continue;
                }
                let gain = node_impurity
                    - (ln / n) * impurity(data.task, lsum, lsq, ln)
                    - (rn / n) * impurity(data.task, rsum, rsq, rn);
                if gain > best.map_or(1e-12, |(_, _, g)| g) {
                    best = Some((f, 0.5 * (xv + xn), gain));
                }
            }
        }

        let Some((feature, threshold, _)) = best else {
            return make_leaf(nodes);
        };

        // Partition in place.
        let mid = partition(data, idx, feature, threshold);
        if mid == 0 || mid == idx.len() {
            return make_leaf(nodes);
        }

        // Reserve our slot, then build children.
        nodes.push(TreeNode {
            feature,
            threshold,
            left: 0,
            right: 0,
            value,
            cover: n,
            is_leaf: false,
        });
        let me = (nodes.len() - 1) as u32;
        let (lidx, ridx) = idx.split_at_mut(mid);
        let left = reference_build(data, lidx, params, rng, depth + 1, nodes);
        let right = reference_build(data, ridx, params, rng, depth + 1, nodes);
        nodes[me as usize].left = left;
        nodes[me as usize].right = right;
        me
    }

    fn reference_fit_on(
        data: &Dataset,
        idx: &[usize],
        params: &TreeParams,
        seed: u64,
    ) -> DecisionTree {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut nodes = Vec::new();
        reference_build(data, &mut idx.to_vec(), params, &mut rng, 0, &mut nodes);
        DecisionTree {
            nodes: nodes.into(),
            n_features: data.n_features(),
            task: data.task,
        }
    }

    #[test]
    fn ranks_follow_values_and_ties_share_one() {
        // Column 0 has ties, including the two zeros; column 1 is distinct.
        let x = vec![0.0, 3.0, -1.5, 2.0, -0.0, 1.0, 7.0, 0.0, -1.5, -1.0];
        let data = Dataset::new(
            vec!["a".into(), "b".into()],
            x,
            vec![0.0; 5],
            Task::Regression,
        )
        .unwrap();
        let ranks = ColumnRanks::of(&data);
        assert_eq!(ranks.column(0), [1, 0, 1, 2, 0]);
        assert_eq!(ranks.column(1), [4, 3, 2, 1, 0]);
    }

    mod rank_keyed_builder_matches_the_stable_sort {
        use super::*;
        use proptest::prelude::*;
        use rand::Rng;

        /// The retrain shape: continuous features, a bootstrap sample, a
        /// per-node feature subset, depth 8.
        #[test]
        fn on_a_forest_shaped_fit() {
            let s = friedman1(600, 14, 0.3, 5).unwrap();
            let mut rng = StdRng::seed_from_u64(9);
            let idx: Vec<usize> = (0..600).map(|_| rng.gen_range(0..600)).collect();
            let params = TreeParams {
                max_features: Some(5),
                ..TreeParams::default()
            };
            let got = DecisionTree::fit_on(&s.data, &idx, &params, 3).unwrap();
            assert!(got.depth() == 8 && got.nodes.len() > 100);
            assert_eq!(got, reference_fit_on(&s.data, &idx, &params, 3));
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Few distinct feature values (so most comparisons tie, the
            /// two zeros among them), bootstrap indices with repeats, a
            /// per-node feature subset, both impurities.
            #[test]
            fn on_tied_bootstrapped_subsampled_data(
                n in 2usize..120,
                d in 1usize..7,
                levels in 1u64..9,
                classify in 0u8..2,
                subset in 0usize..7,
                boot in 1usize..200,
                seed in 1u64..u64::MAX,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let x: Vec<f64> = (0..n * d)
                    .map(|_| match rng.gen_range(0..levels + 2) {
                        0 => -0.0,
                        1 => 0.0,
                        v => (v as f64 - 4.0) * 0.37,
                    })
                    .collect();
                let task = if classify == 1 {
                    Task::BinaryClassification
                } else {
                    Task::Regression
                };
                let y: Vec<f64> = (0..n)
                    .map(|_| match task {
                        Task::BinaryClassification => rng.gen_range(0..2) as f64,
                        Task::Regression => rng.gen::<f64>(),
                    })
                    .collect();
                let names = (0..d).map(|j| format!("f{j}")).collect();
                let data = Dataset::new(names, x, y, task).unwrap();
                let idx: Vec<usize> = (0..boot).map(|_| rng.gen_range(0..n)).collect();
                let params = TreeParams {
                    max_depth: 6,
                    min_samples_split: 2,
                    min_samples_leaf: 1,
                    // 0 = every feature; otherwise a subset of 1..=d.
                    max_features: (subset > 0).then(|| 1 + (subset - 1) % d),
                };
                let tree_seed = rng.gen();
                let want = reference_fit_on(&data, &idx, &params, tree_seed);
                let got = DecisionTree::fit_on(&data, &idx, &params, tree_seed).unwrap();
                prop_assert_eq!(&got, &want);
                // Whole-dataset fit: `idx` is the identity.
                let want = reference_fit_on(
                    &data,
                    &(0..n).collect::<Vec<_>>(),
                    &TreeParams::default(),
                    tree_seed,
                );
                let got = DecisionTree::fit(&data, &TreeParams::default(), tree_seed).unwrap();
                prop_assert_eq!(&got, &want);
            }
        }
    }
}
