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
        Task::Regression => variance(sum, sum_sq, n),
        Task::BinaryClassification => gini(sum, sum_sq, n),
    }
}

/// [`impurity`] of a non-empty regression accumulator.
#[inline(always)]
fn variance(sum: f64, sum_sq: f64, n: f64) -> f64 {
    (sum_sq / n - (sum / n).powi(2)).max(0.0)
}

/// [`impurity`] of a non-empty classification accumulator.
#[inline(always)]
fn gini(sum: f64, _sum_sq: f64, n: f64) -> f64 {
    let p = sum / n;
    2.0 * p * (1.0 - p)
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
        let ranks = ColumnRanks::of(data);
        Self::fit_ranked(
            data,
            &ranks,
            &mut SplitScratch::default(),
            idx,
            params,
            seed,
        )
    }

    /// [`DecisionTree::fit_on`] against ranks the caller computed once
    /// (ensembles fit every tree on the same feature matrix) and split
    /// buffers it keeps across trees. `ranks` must be [`ColumnRanks::of`]
    /// a dataset with `data`'s features; targets may differ (boosting
    /// rewrites them every round).
    pub(crate) fn fit_ranked(
        data: &Dataset,
        ranks: &ColumnRanks,
        scratch: &mut SplitScratch,
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
        scratch.size_for(idx.len());
        let mut grower = Grower {
            data,
            ranks,
            params,
            rng: StdRng::seed_from_u64(seed),
            nodes: Vec::new(),
            scratch,
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
    /// Per column, the bit width of its largest rank (0: one value).
    bits: Vec<u32>,
    n_rows: usize,
}

impl ColumnRanks {
    pub(crate) fn of(data: &Dataset) -> ColumnRanks {
        let (n, d) = (data.n_rows(), data.n_features());
        assert!(n <= u32::MAX as usize, "row ids and ranks are 32-bit");
        let x = data.x_flat();
        let mut ranks = vec![0u32; n * d];
        let mut bits = vec![0u32; d];
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
            bits[f] = u32::BITS - rank.leading_zeros();
        }
        ColumnRanks {
            ranks,
            bits,
            n_rows: n,
        }
    }

    fn column(&self, f: usize) -> &[u32] {
        &self.ranks[f * self.n_rows..(f + 1) * self.n_rows]
    }
}

/// Digit width of the radix sort: one pass per 8 rank bits, four at most.
const RADIX_BITS: u32 = 8;

/// Nodes with fewer rows sort their keys with `sort_unstable`: below this
/// the radix sort's histograms cost more than the comparisons.
const RADIX_MIN_KEYS: usize = 96;

/// Orders split keys — `rank << 32 | position`, pushed in position order —
/// by rank, ties by position. The keys are unique, so this is the one
/// order `sort_unstable` gives them; a stable LSD radix sort over the rank
/// half (`rank_bits` wide) reaches it without comparing, because its input
/// is already in position order and every pass keeps equal digits in
/// input order. `spare` is the radix sort's second buffer.
fn sort_keys(keys: &mut Vec<u64>, spare: &mut Vec<u64>, rank_bits: u32) {
    if keys.len() < RADIX_MIN_KEYS {
        keys.sort_unstable();
        return;
    }
    const DIGIT: usize = 1 << RADIX_BITS;
    let passes = rank_bits.div_ceil(RADIX_BITS) as usize;
    let mut counts = [[0u32; DIGIT]; 4];
    for &k in keys.iter() {
        let rank = (k >> 32) as usize;
        for (p, count) in counts[..passes].iter_mut().enumerate() {
            count[(rank >> (p as u32 * RADIX_BITS)) % DIGIT] += 1;
        }
    }
    spare.resize(keys.len(), 0);
    for (p, count) in counts[..passes].iter_mut().enumerate() {
        let digit = |k: u64| (k >> (32 + p as u32 * RADIX_BITS)) as usize % DIGIT;
        if count[digit(keys[0])] as usize == keys.len() {
            continue; // one bucket: the pass would copy the order it has
        }
        let mut at = 0u32;
        for slot in count.iter_mut() {
            (*slot, at) = (at, at + *slot);
        }
        for &k in keys.iter() {
            let slot = &mut count[digit(k)];
            spare[*slot as usize] = k;
            *slot += 1;
        }
        std::mem::swap(keys, spare);
    }
}

/// Boundaries evaluated per batch: pass 1 records at most this many
/// before passes 2 and 3 consume them, so the per-boundary arrays stay in
/// L1 whatever the node's size.
const BATCH: usize = 256;

/// Split-search buffers, reused by every node of every tree the caller
/// fits with them: a node's search is over before its children are built.
#[derive(Default)]
pub(crate) struct SplitScratch {
    /// One feature's `rank << 32 | position` keys, sorted.
    keys: Vec<u64>,
    /// The radix sort's second buffer.
    spare: Vec<u64>,
    /// The node's targets in position order.
    ys: Vec<f64>,
    /// Per admissible boundary of the current batch, in scan order: `w`,
    /// the last sorted position on its left, the two sides' running sums
    /// there, and its gain.
    at: Vec<u32>,
    lsum: Vec<f64>,
    lsq: Vec<f64>,
    rsum: Vec<f64>,
    rsq: Vec<f64>,
    gain: Vec<f64>,
}

/// What a node's split search knows before it looks at a feature.
struct NodeStats {
    task: Task,
    /// Row count, as the reference's `n`.
    n: f64,
    sum: f64,
    sum_sq: f64,
    impurity: f64,
}

/// The running sums of one scan: the left side's and the right side's
/// sum and sum of squares.
struct Running {
    lsum: f64,
    lsq: f64,
    rsum: f64,
    rsq: f64,
}

impl Running {
    /// Moves one target from the right side to the left, with the
    /// reference's operations in the reference's order.
    #[inline(always)]
    fn take(&mut self, yi: f64) {
        self.lsum += yi;
        self.lsq += yi * yi;
        self.rsum -= yi;
        self.rsq -= yi * yi;
    }
}

impl SplitScratch {
    /// Makes room for a tree over `rows` training rows.
    fn size_for(&mut self, rows: usize) {
        for v in [&mut self.lsum, &mut self.lsq, &mut self.rsum, &mut self.rsq] {
            v.resize(BATCH, 0.0);
        }
        self.gain.resize(BATCH, 0.0);
        self.at.resize(BATCH, 0);
        self.keys.reserve(rows);
        self.spare.reserve(rows);
        self.ys.reserve(rows);
    }

    /// Scans the sorted keys for the first admissible boundary `w` in
    /// `lo..hi` whose gain is strictly greater than `top` and every
    /// earlier candidate's; returns it with its gain.
    fn best_boundary(
        &mut self,
        node: &NodeStats,
        lo: usize,
        hi: usize,
        mut top: f64,
    ) -> Option<(usize, f64)> {
        if lo >= hi {
            return None; // no boundary leaves `min_leaf` rows on both sides
        }
        let mut run = Running {
            lsum: 0.0,
            lsq: 0.0,
            rsum: node.sum,
            rsq: node.sum_sq,
        };
        for &k in &self.keys[..lo] {
            run.take(self.ys[k as u32 as usize]);
        }
        let mut won = None;
        for start in (lo..hi).step_by(BATCH) {
            let m = self.boundary_sums(&mut run, start, (start + BATCH).min(hi));
            self.gains(node, m);
            // Pass 3: the first strictly better gain.
            for (&gain, &w) in self.gain[..m].iter().zip(&self.at[..m]) {
                if gain > top {
                    (top, won) = (gain, Some(w as usize));
                }
            }
        }
        won.map(|w| (w, top))
    }

    /// Pass 1: continues the scan over sorted positions `start..end` and
    /// records the sums at every boundary where the rank changes. Returns
    /// how many it recorded.
    fn boundary_sums(&mut self, run: &mut Running, start: usize, end: usize) -> usize {
        let (keys, ys) = (&self.keys, &self.ys);
        let mut m = 0;
        for w in start..end {
            run.take(ys[keys[w] as u32 as usize]);
            // Written at every position, kept (m advances) only where the
            // rank changes: no branch on the data.
            self.at[m] = w as u32;
            self.lsum[m] = run.lsum;
            self.lsq[m] = run.lsq;
            self.rsum[m] = run.rsum;
            self.rsq[m] = run.rsq;
            m += (keys[w] >> 32 != keys[w + 1] >> 32) as usize;
        }
        m
    }

    /// Pass 2: the gains of the first `m` recorded boundaries, with the
    /// reference's expression. `ln = w + 1` and `rn = n − ln` are integers
    /// below 2⁵³, so they equal the reference's `+= 1.0` / `-= 1.0`
    /// counters exactly, and both are ≥ 1: [`impurity`]'s empty-node
    /// branch never fires at a boundary.
    fn gains(&mut self, node: &NodeStats, m: usize) {
        match node.task {
            Task::Regression => self.gains_with(variance, node, m),
            Task::BinaryClassification => self.gains_with(gini, node, m),
        }
    }

    #[inline(always)]
    fn gains_with(&mut self, imp: impl Fn(f64, f64, f64) -> f64, node: &NodeStats, m: usize) {
        let (at, lsum, lsq) = (&self.at[..m], &self.lsum[..m], &self.lsq[..m]);
        let (rsum, rsq, gain) = (&self.rsum[..m], &self.rsq[..m], &mut self.gain[..m]);
        let (n, node_impurity) = (node.n, node.impurity);
        for k in 0..m {
            let ln = at[k] as f64 + 1.0;
            let rn = n - ln;
            gain[k] = node_impurity
                - (ln / n) * imp(lsum[k], lsq[k], ln)
                - (rn / n) * imp(rsum[k], rsq[k], rn);
        }
    }
}

/// One tree's growth state: what every node of the recursion shares.
struct Grower<'a> {
    data: &'a Dataset,
    ranks: &'a ColumnRanks,
    params: &'a TreeParams,
    rng: StdRng,
    nodes: Vec<TreeNode>,
    scratch: &'a mut SplitScratch,
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
        let s = &mut *self.scratch;
        s.ys.clear();
        s.ys.extend(idx.iter().map(|&i| data.y[i]));
        let sum: f64 = s.ys.iter().sum();
        let sum_sq: f64 = s.ys.iter().map(|&y| y * y).sum();
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

        // Find the best split. Each candidate feature orders the node's
        // rows by value, ties by position in `idx` (the order a stable
        // sort of the values gives), and every boundary `w` between two
        // distinct values with at least `min_leaf` rows on either side
        // (`w + 1 >= min_leaf`, `len − w − 1 >= min_leaf`) is a candidate.
        // The first candidate strictly better than the best so far wins.
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gain)
        let min_leaf = params.min_samples_leaf.max(1);
        let (lo, hi) = (min_leaf - 1, idx.len().saturating_sub(min_leaf));
        let node = NodeStats {
            task: data.task,
            n,
            sum,
            sum_sq,
            impurity: node_impurity,
        };
        let s = &mut *self.scratch;
        for &f in &features {
            let column = self.ranks.column(f);
            s.keys.clear();
            s.keys.extend(
                idx.iter()
                    .enumerate()
                    .map(|(pos, &row)| (column[row] as u64) << 32 | pos as u64),
            );
            sort_keys(&mut s.keys, &mut s.spare, self.ranks.bits[f]);
            let top = best.map_or(1e-12, |(_, _, g)| g);
            if let Some((w, gain)) = s.best_boundary(&node, lo, hi, top) {
                let x_at = |w: usize| data.row(idx[s.keys[w] as u32 as usize])[f];
                best = Some((f, 0.5 * (x_at(w) + x_at(w + 1)), gain));
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

    /// The same oracle on nodes large enough for [`sort_keys`]'s radix path
    /// (the cases above stay mostly below [`RADIX_MIN_KEYS`]).
    mod radix_keyed_builder_matches_the_stable_sort {
        use super::*;
        use proptest::prelude::*;
        use rand::Rng;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// 500–3 000 bootstrap rows over a smaller table, so positions
            /// repeat rows and ranks tie; each column is either a few
            /// levels (the two zeros among them) or continuous (ranks past
            /// 8 bits: two radix passes); both impurities, with and
            /// without a per-node feature subset, varied leaf sizes.
            #[test]
            fn on_large_tied_bootstrapped_nodes(
                n in 300usize..1_500,
                d in 1usize..6,
                classify in 0u8..2,
                subset in 0usize..6,
                boot in 500usize..3_000,
                min_leaf in 1usize..5,
                seed in 1u64..u64::MAX,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let levels: Vec<u64> = (0..d).map(|_| rng.gen_range(0..12)).collect();
                let x: Vec<f64> = (0..n * d)
                    .map(|i| match levels[i % d] {
                        l @ 0..=8 => match rng.gen_range(0..l + 3) {
                            0 => -0.0,
                            1 => 0.0,
                            v => (v as f64 - 4.0) * 0.37,
                        },
                        _ => rng.gen::<f64>() - 0.5,
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
                    min_samples_split: 2 * min_leaf,
                    min_samples_leaf: min_leaf,
                    max_features: (subset > 0).then(|| 1 + (subset - 1) % d),
                };
                let tree_seed = rng.gen();
                let want = reference_fit_on(&data, &idx, &params, tree_seed);
                let got = DecisionTree::fit_on(&data, &idx, &params, tree_seed).unwrap();
                prop_assert!(got.nodes[0].cover >= RADIX_MIN_KEYS as f64);
                prop_assert_eq!(&got, &want);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Keys of every rank width (0–32 bits, one to four passes,
            /// passes whose digit is the same for every key) come out in
            /// `sort_unstable`'s order.
            #[test]
            fn sort_keys_orders_like_sort_unstable(
                len in 0usize..700,
                bits in 0u32..33,
                spread in 0u32..33,
                seed in 1u64..u64::MAX,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                // Ranks share their high bits above `spread`.
                let high = rng.gen::<u64>() as u32 & ((1u64 << bits) - 1) as u32;
                let low_mask = ((1u64 << spread.min(bits)) - 1) as u32;
                let mut keys: Vec<u64> = (0..len)
                    .map(|pos| {
                        let rank = (high & !low_mask) | (rng.gen::<u64>() as u32 & low_mask);
                        (rank as u64) << 32 | pos as u64
                    })
                    .collect();
                let mut want = keys.clone();
                want.sort_unstable();
                sort_keys(&mut keys, &mut Vec::new(), bits);
                prop_assert_eq!(keys, want);
            }
        }
    }
}
