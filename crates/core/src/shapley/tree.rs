//! TreeSHAP: exact Shapley values for tree ensembles in polynomial time
//! (Lundberg, Erion & Lee, 2018 — the path-dependent variant).
//!
//! The value function is the tree's own conditional expectation: for
//! features outside the coalition, the walk splits across both children
//! weighted by training covers. The kernel computes the exact Shapley
//! values of that game in `O(L·D²)` per tree; the test suite checks it
//! against a brute-force `2^d` evaluation of the same game.
//!
//! One kernel serves every entry point: path rows in a preallocated arena
//! ([`TreeShapScratch`]), combinatorial ratios from a table, one shared
//! unwound sum for all cold (`o = 0`) elements of a leaf — so a call
//! allocates only its output and its inner loops never divide. See
//! DESIGN.md, "The TreeSHAP kernel".

use crate::explanation::Attribution;
use crate::XaiError;
use nfv_ml::forest::RandomForest;
use nfv_ml::gbdt::Gbdt;
use nfv_ml::tree::{DecisionTree, TreeNode};

/// Hot path elements unwound per pass at a leaf. Their recurrences are
/// independent, so a pass costs one chain's latency; more than four hot
/// elements are rare (half the leaves leave x's path at the root).
const LANES: usize = 4;

/// One element of the unique feature path of a recursion level.
#[derive(Debug, Clone, Copy, Default)]
struct PathElem {
    /// Feature that split here (`usize::MAX` for the dummy root element).
    feat: usize,
    /// Fraction of paths flowing through when the feature is *excluded*.
    z: f64,
    /// Whether x follows this path when the feature is *included* (the
    /// published `o`, which only ever takes the values 1 and 0).
    hot: bool,
    /// Permutation weight accumulated so far.
    w: f64,
}

/// The combinatorial ratios of a path of `l + 1` elements at position
/// `j < l`.
#[derive(Debug, Clone, Copy, Default)]
struct Ratios {
    /// `(j + 1) / (l + 1)`
    up: f64,
    /// `(l − j) / (l + 1)`
    down: f64,
    /// `(l + 1) / (j + 1)`
    inv_up: f64,
    /// `(l + 1) / (l − j)`
    inv_down: f64,
}

/// The kernel's reusable memory: one path row per recursion level plus the
/// ratio table, both `stride × stride`. Grows to the deepest ensemble it
/// has served and is never read before being written, so reuse across
/// models cannot change a result bit.
#[derive(Debug, Default, Clone)]
pub struct TreeShapScratch {
    /// Rows, and elements per row: deepest tree depth seen, plus one.
    stride: usize,
    /// Row `L` holds the path of the node being visited at depth `L`.
    path: Vec<PathElem>,
    /// `ratios[l * stride + j]`.
    ratios: Vec<Ratios>,
}

impl TreeShapScratch {
    fn reserve(&mut self, max_depth: usize) {
        let s = max_depth + 1;
        if s <= self.stride {
            return;
        }
        self.stride = s;
        self.path.resize(s * s, PathElem::default());
        self.ratios.resize(s * s, Ratios::default());
        for l in 0..s {
            let n = l as f64 + 1.0;
            for j in 0..l {
                let (up, down) = (j as f64 + 1.0, (l - j) as f64);
                self.ratios[l * s + j] = Ratios {
                    up: up / n,
                    down: down / n,
                    inv_up: n / up,
                    inv_down: n / down,
                };
            }
        }
    }
}

/// What the kernel needs to know about an ensemble beyond its trees,
/// derived from the model once (at registration, when serving) rather than
/// per call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeShapConsts {
    n_features: usize,
    base_value: f64,
    /// Weight of one tree's attributions in the ensemble's.
    scale: f64,
    max_depth: usize,
}

impl TreeShapConsts {
    fn new(n_features: usize, trees: &[DecisionTree], base_value: f64, scale: f64) -> Self {
        TreeShapConsts {
            n_features,
            base_value,
            scale,
            max_depth: trees.iter().map(DecisionTree::depth).max().unwrap_or(0),
        }
    }

    /// Constants of a single tree.
    pub fn tree(tree: &DecisionTree) -> TreeShapConsts {
        let trees = std::slice::from_ref(tree);
        TreeShapConsts::new(tree.n_features, trees, tree_expected_value(tree), 1.0)
    }

    /// Constants of a random forest (the mean of its trees).
    pub fn forest(forest: &RandomForest) -> TreeShapConsts {
        let k = forest.trees.len() as f64;
        let expected = forest.trees.iter().map(tree_expected_value);
        let sum = expected.fold(0.0, |a, e| a + e);
        TreeShapConsts::new(forest.n_features, &forest.trees, sum / k, 1.0 / k)
    }

    /// Constants of a GBDT, in margin space.
    pub fn gbdt(gbdt: &Gbdt) -> TreeShapConsts {
        let rate = gbdt.learning_rate;
        let expected = gbdt.trees.iter().map(tree_expected_value);
        let base = expected.fold(gbdt.base_score, |a, e| a + rate * e);
        TreeShapConsts::new(gbdt.n_features, &gbdt.trees, base, rate)
    }

    /// The ensemble's path-dependent expected value.
    pub fn base_value(&self) -> f64 {
        self.base_value
    }
}

/// Removes element `k` from `row` (the inverse of the extension that added
/// it), leaving the last slot stale. `r` is the ratio row of `row.len()`.
fn unwind(row: &mut [PathElem], k: usize, r: &[Ratios]) {
    let l = row.len() - 1;
    let PathElem { z, hot, .. } = row[k];
    if hot {
        let mut n = row[l].w;
        for j in (0..l).rev() {
            let w = n * r[j].inv_up;
            n = row[j].w - w * z * r[j].down;
            row[j].w = w;
        }
    } else {
        let inv_z = 1.0 / z;
        for j in 0..l {
            row[j].w *= r[j].inv_down * inv_z;
        }
    }
    for j in k..l {
        row[j] = PathElem {
            w: row[j].w,
            ..row[j + 1]
        };
    }
}

/// The unwound path sums of up to [`LANES`] hot elements with excluded
/// fractions `zs`: the recurrences are independent, so they advance
/// together, position-outer / element-inner.
fn hot_sums(row: &[PathElem], r: &[Ratios], zs: &[f64; LANES]) -> [f64; LANES] {
    let l = row.len() - 1;
    let mut n = [row[l].w; LANES];
    let mut total = [0.0; LANES];
    for j in (0..l).rev() {
        let (a, b, w) = (r[j].inv_up, r[j].down, row[j].w);
        for e in 0..LANES {
            let t = n[e] * a;
            total[e] += t;
            n[e] = w - t * (zs[e] * b);
        }
    }
    total
}

/// Credits a leaf of (scaled) value `v` to the features on its path.
fn leaf(row: &[PathElem], r: &[Ratios], v: f64, phi: &mut [f64]) {
    let l = row.len() - 1;
    // A cold element's unwound sum is Σ_j w_j·(l+1)/(l−j) over its own z,
    // and its credit multiplies that by (0 − z): the same for all of them.
    let cold: f64 = (0..l).map(|j| row[j].w * r[j].inv_down).sum::<f64>() * v;
    let (mut zs, mut feats, mut lanes) = ([0.0; LANES], [0; LANES], 0);
    for (i, e) in row.iter().enumerate().skip(1) {
        if e.hot {
            (zs[lanes], feats[lanes]) = (e.z, e.feat);
            lanes += 1;
        } else {
            phi[e.feat] -= cold;
        }
        if lanes == LANES || (i == l && lanes > 0) {
            // Lanes past `lanes` hold stale fractions: computed, not read.
            let total = hot_sums(row, r, &zs);
            for e in 0..lanes {
                phi[feats[e]] += total[e] * (1.0 - zs[e]) * v;
            }
            lanes = 0;
        }
    }
}

/// The walk of one request, one tree (`nodes`) at a time.
struct Walk<'a> {
    nodes: &'a [TreeNode],
    x: &'a [f64],
    /// Leaf values are multiplied by this (the tree's ensemble weight).
    scale: f64,
    scratch: &'a mut TreeShapScratch,
    phi: &'a mut [f64],
}

impl Walk<'_> {
    /// Visits `node` at depth `level`: extends the parent's `l`-element
    /// path (the row above) by `(feat, z, hot)` into this level's row,
    /// then credits the leaf or descends.
    fn visit(&mut self, node: usize, level: usize, l: usize, feat: usize, z: f64, hot: bool) {
        let s = self.scratch.stride;
        let (above, below) = self.scratch.path.split_at_mut(level * s);
        let parent = &above[level.saturating_sub(1) * s..][..l];
        let row = &mut below[..=l];
        let r = &self.scratch.ratios[l * s..][..l];
        let mut carry = 0.0;
        for i in 0..l {
            let p = parent[i];
            row[i] = p;
            row[i].w = z * p.w * r[i].down + carry;
            carry = if hot { p.w * r[i].up } else { 0.0 };
        }
        let w = if l == 0 { 1.0 } else { carry };
        row[l] = PathElem { feat, z, hot, w };

        let n = &self.nodes[node];
        if n.is_leaf {
            leaf(row, r, n.value * self.scale, self.phi);
            return;
        }
        let f = n.feature;
        let goes_left = self.x.get(f).copied().unwrap_or(0.0) <= n.threshold;
        let (hot_child, cold_child) = if goes_left {
            (n.left as usize, n.right as usize)
        } else {
            (n.right as usize, n.left as usize)
        };
        let inv_cover = 1.0 / n.cover;
        let mut hot_z = self.nodes[hot_child].cover * inv_cover;
        let mut cold_z = self.nodes[cold_child].cover * inv_cover;
        let (mut len, mut follows) = (l + 1, true);
        // A prior split on this feature (the dummy at 0 never matches) is
        // undone first; the new element inherits its fraction and hotness.
        if let Some(k) = row[1..].iter().position(|e| e.feat == f).map(|k| k + 1) {
            hot_z *= row[k].z;
            cold_z *= row[k].z;
            follows = row[k].hot;
            unwind(row, k, r);
            len = l;
        }
        self.visit(hot_child, level + 1, len, f, hot_z, follows);
        self.visit(cold_child, level + 1, len, f, cold_z, false);
    }
}

/// The tree's path-dependent expected value (the base value of its
/// attributions): leaf values weighted by training covers.
pub fn tree_expected_value(tree: &DecisionTree) -> f64 {
    fn walk(tree: &DecisionTree, i: usize) -> f64 {
        let n = &tree.nodes[i];
        if n.is_leaf {
            n.value
        } else {
            let l = &tree.nodes[n.left as usize];
            let r = &tree.nodes[n.right as usize];
            (l.cover * walk(tree, n.left as usize) + r.cover * walk(tree, n.right as usize))
                / n.cover
        }
    }
    if tree.nodes.is_empty() {
        0.0
    } else {
        walk(tree, 0)
    }
}

/// The tree's conditional expectation given coalition `S` (features where
/// `in_coalition` is true take x's path; others split by covers). This is
/// the value function TreeSHAP attributes — exported for the brute-force
/// verification used in tests and the convergence experiments.
pub fn path_dependent_value(tree: &DecisionTree, x: &[f64], in_coalition: &[bool]) -> f64 {
    fn walk(tree: &DecisionTree, i: usize, x: &[f64], s: &[bool]) -> f64 {
        let n = &tree.nodes[i];
        if n.is_leaf {
            return n.value;
        }
        if s.get(n.feature).copied().unwrap_or(false) {
            let next = if x.get(n.feature).copied().unwrap_or(0.0) <= n.threshold {
                n.left
            } else {
                n.right
            };
            walk(tree, next as usize, x, s)
        } else {
            let l = &tree.nodes[n.left as usize];
            let r = &tree.nodes[n.right as usize];
            (l.cover * walk(tree, n.left as usize, x, s)
                + r.cover * walk(tree, n.right as usize, x, s))
                / n.cover
        }
    }
    walk(tree, 0, x, in_coalition)
}

fn check(d_tree: usize, x: &[f64], names: &[String]) -> Result<(), XaiError> {
    if x.is_empty() {
        return Err(XaiError::Input(
            "cannot explain a zero-feature input".into(),
        ));
    }
    if d_tree != x.len() || names.len() != x.len() {
        return Err(XaiError::Input(format!(
            "shape mismatch: model has {d_tree} features, x {}, names {}",
            x.len(),
            names.len()
        )));
    }
    Ok(())
}

/// The kernel's entry point: attributions of the ensemble `trees` under
/// `consts` (which must have been derived from the same model), with
/// `prediction` the ensemble's output at `x`. Allocates only the result.
pub fn ensemble_shap(
    trees: &[DecisionTree],
    consts: &TreeShapConsts,
    prediction: f64,
    x: &[f64],
    names: &[String],
    scratch: &mut TreeShapScratch,
) -> Result<Attribution, XaiError> {
    check(consts.n_features, x, names)?;
    scratch.reserve(consts.max_depth);
    let mut phi = vec![0.0; x.len()];
    let mut walk = Walk {
        nodes: &[],
        x,
        scale: consts.scale,
        scratch,
        phi: &mut phi,
    };
    for t in trees.iter().filter(|t| !t.nodes.is_empty()) {
        walk.nodes = &t.nodes;
        walk.visit(0, 0, 0, usize::MAX, 1.0, true);
    }
    Ok(Attribution {
        names: names.into(),
        values: phi,
        base_value: consts.base_value,
        prediction,
        method: "tree-shap".into(),
    })
}

/// TreeSHAP for a single decision tree.
pub fn tree_shap(
    tree: &DecisionTree,
    x: &[f64],
    names: &[String],
) -> Result<Attribution, XaiError> {
    let (trees, consts) = (std::slice::from_ref(tree), TreeShapConsts::tree(tree));
    let scratch = &mut TreeShapScratch::default();
    ensemble_shap(trees, &consts, tree.output(x), x, names, scratch)
}

/// TreeSHAP for a random forest: the average of per-tree attributions
/// (Shapley values are linear in the model).
pub fn forest_shap(
    forest: &RandomForest,
    x: &[f64],
    names: &[String],
) -> Result<Attribution, XaiError> {
    let consts = TreeShapConsts::forest(forest);
    let scratch = &mut TreeShapScratch::default();
    ensemble_shap(&forest.trees, &consts, forest.output(x), x, names, scratch)
}

/// TreeSHAP for a GBDT: attributions in *margin* space (log-odds for
/// classification — the standard convention, since Shapley linearity holds
/// before the sigmoid).
pub fn gbdt_shap(gbdt: &Gbdt, x: &[f64], names: &[String]) -> Result<Attribution, XaiError> {
    let consts = TreeShapConsts::gbdt(gbdt);
    let scratch = &mut TreeShapScratch::default();
    ensemble_shap(&gbdt.trees, &consts, gbdt.margin(x), x, names, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfv_data::prelude::*;
    use nfv_ml::forest::ForestParams;
    use nfv_ml::gbdt::GbdtParams;
    use nfv_ml::tree::TreeParams;

    fn names(d: usize) -> Vec<String> {
        (0..d).map(|i| format!("x{i}")).collect()
    }

    /// Brute-force Shapley of the path-dependent game — the oracle.
    fn brute_force(tree: &DecisionTree, x: &[f64]) -> Vec<f64> {
        let d = x.len();
        let n_masks = 1usize << d;
        let mut v = vec![0.0; n_masks];
        let mut s = vec![false; d];
        for (mask, value) in v.iter_mut().enumerate() {
            for (j, b) in s.iter_mut().enumerate() {
                *b = (mask >> j) & 1 == 1;
            }
            *value = path_dependent_value(tree, x, &s);
        }
        let mut fact = vec![1.0f64; d + 1];
        for i in 1..=d {
            fact[i] = fact[i - 1] * i as f64;
        }
        let mut phi = vec![0.0; d];
        for mask in 0..n_masks {
            let size = (mask as u64).count_ones() as usize;
            if size == d {
                continue;
            }
            let w = fact[size] * fact[d - size - 1] / fact[d];
            for (i, p) in phi.iter_mut().enumerate() {
                if (mask >> i) & 1 == 0 {
                    *p += w * (v[mask | (1 << i)] - v[mask]);
                }
            }
        }
        phi
    }

    #[test]
    fn matches_brute_force_on_friedman_tree() {
        let s = friedman1(400, 6, 0.2, 51).unwrap();
        let tree = DecisionTree::fit(
            &s.data,
            &TreeParams {
                max_depth: 6,
                ..TreeParams::default()
            },
            0,
        )
        .unwrap();
        for row in [0, 17, 99, 250] {
            let x = s.data.row(row).to_vec();
            let fast = tree_shap(&tree, &x, &names(6)).unwrap();
            let slow = brute_force(&tree, &x);
            for (a, b) in fast.values.iter().zip(&slow) {
                assert!((a - b).abs() < 1e-9, "fast {a} vs brute {b} at row {row}");
            }
        }
    }

    #[test]
    fn matches_brute_force_with_repeated_feature_splits() {
        // Deep tree over few features forces repeated splits on the same
        // feature along a path — the case the unwind logic exists for.
        let s = friedman1(600, 5, 0.1, 52).unwrap();
        let tree = DecisionTree::fit(
            &s.data,
            &TreeParams {
                max_depth: 9,
                min_samples_split: 2,
                min_samples_leaf: 1,
                max_features: None,
            },
            0,
        )
        .unwrap();
        assert!(tree.depth() > 5, "need a deep tree, got {}", tree.depth());
        for row in [3, 42, 333] {
            let x = s.data.row(row).to_vec();
            let fast = tree_shap(&tree, &x, &names(5)).unwrap();
            let slow = brute_force(&tree, &x);
            for (a, b) in fast.values.iter().zip(&slow) {
                assert!((a - b).abs() < 1e-8, "fast {a} vs brute {b} at row {row}");
            }
        }
    }

    #[test]
    fn efficiency_holds_exactly() {
        let s = friedman1(500, 8, 0.3, 53).unwrap();
        let tree = DecisionTree::fit(&s.data, &TreeParams::default(), 0).unwrap();
        for row in 0..30 {
            let x = s.data.row(row).to_vec();
            let a = tree_shap(&tree, &x, &names(8)).unwrap();
            assert!(
                a.efficiency_gap().abs() < 1e-9,
                "row {row}: gap {}",
                a.efficiency_gap()
            );
        }
    }

    #[test]
    fn dummy_feature_gets_zero() {
        // Feature 7 is noise in friedman1 and rarely split on; build a stump
        // that provably never uses it.
        let s = friedman1(300, 8, 0.2, 54).unwrap();
        let tree = DecisionTree::fit(
            &s.data,
            &TreeParams {
                max_depth: 2,
                ..TreeParams::default()
            },
            0,
        )
        .unwrap();
        let used: std::collections::HashSet<usize> = tree
            .nodes
            .iter()
            .filter(|n| !n.is_leaf)
            .map(|n| n.feature)
            .collect();
        let x = s.data.row(0).to_vec();
        let a = tree_shap(&tree, &x, &names(8)).unwrap();
        for j in 0..8 {
            if !used.contains(&j) {
                assert_eq!(a.values[j], 0.0, "unused feature {j} must get 0");
            }
        }
    }

    #[test]
    fn forest_shap_is_mean_of_tree_shaps() {
        let s = friedman1(400, 6, 0.3, 55).unwrap();
        let forest = RandomForest::fit(
            &s.data,
            &ForestParams {
                n_trees: 7,
                ..ForestParams::default()
            },
            1,
            1,
        )
        .unwrap();
        let x = s.data.row(12).to_vec();
        let whole = forest_shap(&forest, &x, &names(6)).unwrap();
        let mut acc = vec![0.0; 6];
        for t in &forest.trees {
            let a = tree_shap(t, &x, &names(6)).unwrap();
            for (s, v) in acc.iter_mut().zip(&a.values) {
                *s += v / forest.trees.len() as f64;
            }
        }
        for (a, b) in whole.values.iter().zip(&acc) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!(whole.efficiency_gap().abs() < 1e-9);
    }

    #[test]
    fn gbdt_shap_explains_the_margin() {
        let s = friedman1(600, 6, 0.3, 56).unwrap();
        let g = Gbdt::fit(
            &s.data,
            &GbdtParams {
                n_rounds: 40,
                ..GbdtParams::default()
            },
            0,
        )
        .unwrap();
        let x = s.data.row(5).to_vec();
        let a = gbdt_shap(&g, &x, &names(6)).unwrap();
        assert!((a.prediction - g.margin(&x)).abs() < 1e-12);
        assert!(a.efficiency_gap().abs() < 1e-8, "{}", a.efficiency_gap());
    }

    #[test]
    fn classification_gbdt_attributions_are_log_odds() {
        let s = interaction_xor(1_000, 1, 57).unwrap();
        let g = Gbdt::fit(&s.data, &GbdtParams::default(), 0).unwrap();
        let x = s.data.row(3).to_vec();
        let a = gbdt_shap(&g, &x, &names(3)).unwrap();
        // Margin-space efficiency.
        assert!(a.efficiency_gap().abs() < 1e-8);
        // The noise feature earns far less credit than the interacting pair.
        assert!(a.values[2].abs() < a.values[0].abs().max(a.values[1].abs()));
    }

    #[test]
    fn expected_value_matches_cover_weighting() {
        let data = Dataset::new(
            vec!["x".into()],
            vec![0.0, 1.0, 2.0, 3.0],
            vec![0.0, 0.0, 10.0, 10.0],
            Task::Regression,
        )
        .unwrap();
        let tree = DecisionTree::fit(
            &data,
            &TreeParams {
                max_depth: 1,
                min_samples_split: 2,
                min_samples_leaf: 1,
                max_features: None,
            },
            0,
        )
        .unwrap();
        assert!((tree_expected_value(&tree) - 5.0).abs() < 1e-12);
        // Coalition values: empty = 5, {0} follows x.
        assert_eq!(path_dependent_value(&tree, &[0.0], &[false]), 5.0);
        assert_eq!(path_dependent_value(&tree, &[0.0], &[true]), 0.0);
        assert_eq!(path_dependent_value(&tree, &[3.0], &[true]), 10.0);
    }

    #[test]
    fn guards_reject_bad_shapes() {
        let s = friedman1(100, 5, 0.1, 58).unwrap();
        let tree = DecisionTree::fit(&s.data, &TreeParams::default(), 0).unwrap();
        assert!(tree_shap(&tree, &[], &[]).is_err());
        assert!(tree_shap(&tree, &[1.0; 4], &names(4)).is_err());
        assert!(tree_shap(&tree, &[1.0; 5], &names(4)).is_err());
    }

    /// A forest of unpruned trees (`min_samples_leaf = 1`): with few
    /// features and many levels, paths split on a feature repeatedly.
    fn deep_forest(d: usize, max_depth: usize, seed: u64) -> (Dataset, RandomForest) {
        let s = friedman1(150, d, 0.2, seed).unwrap();
        let params = ForestParams {
            n_trees: 3,
            tree: TreeParams {
                max_depth,
                min_samples_split: 2,
                min_samples_leaf: 1,
                max_features: None,
            },
            sample_fraction: 1.0,
        };
        let forest = RandomForest::fit(&s.data, &params, seed, 1).unwrap();
        (s.data, forest)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        /// Random CART forests against the `2^d` oracle, repeated-feature
        /// paths (hot and cold unwinds) and multi-pass leaves included.
        #[test]
        fn forests_match_the_brute_force_oracle(
            seed in 0u64..10_000,
            d in 5usize..11,
            max_depth in 1usize..13,
            row in 0usize..150,
        ) {
            let (data, forest) = deep_forest(d, max_depth, seed);
            let x = data.row(row).to_vec();
            let fast = forest_shap(&forest, &x, &names(d)).unwrap();
            let mut slow = vec![0.0; d];
            for t in &forest.trees {
                for (s, b) in slow.iter_mut().zip(brute_force(t, &x)) {
                    *s += b / forest.trees.len() as f64;
                }
            }
            for (a, b) in fast.values.iter().zip(&slow) {
                assert!((a - b).abs() < 1e-9, "fast {a} vs brute {b}");
            }
            assert!(fast.efficiency_gap().abs() < 1e-9, "{}", fast.efficiency_gap());
        }
    }

    /// Distinct features on x's own root-to-leaf path: all of them hot.
    fn hot_features_on_own_path(tree: &DecisionTree, x: &[f64]) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut i = 0;
        while !tree.nodes[i].is_leaf {
            let n = &tree.nodes[i];
            seen.insert(n.feature);
            i = if x[n.feature] <= n.threshold {
                n.left
            } else {
                n.right
            } as usize;
        }
        seen.len()
    }

    #[test]
    fn a_used_scratch_gives_the_bits_of_a_fresh_one() {
        let (data, deep) = deep_forest(10, 12, 61);
        let (_, shallow) = deep_forest(10, 3, 62);
        // The row whose own path carries the most hot elements: more than
        // one pass of `hot_sums` at its leaf.
        let most_hot = |x: &[f64]| {
            let hot = deep.trees.iter().map(|t| hot_features_on_own_path(t, x));
            hot.max().unwrap()
        };
        let x = (0..data.n_rows())
            .map(|i| data.row(i).to_vec())
            .max_by_key(|x| most_hot(x))
            .unwrap();
        assert!(most_hot(&x) > LANES, "need a multi-pass leaf");
        let run = |forest: &RandomForest, scratch: &mut TreeShapScratch| {
            let consts = TreeShapConsts::forest(forest);
            ensemble_shap(&forest.trees, &consts, 0.0, &x, &names(10), scratch).unwrap()
        };
        let fresh_deep = run(&deep, &mut TreeShapScratch::default());
        let fresh_shallow = run(&shallow, &mut TreeShapScratch::default());
        // Grown on the shallow model then used deeper, and the reverse.
        let mut scratch = TreeShapScratch::default();
        for (forest, fresh) in [
            (&shallow, &fresh_shallow),
            (&deep, &fresh_deep),
            (&shallow, &fresh_shallow),
        ] {
            let reused = run(forest, &mut scratch);
            for (a, b) in reused.values.iter().zip(&fresh.values) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // The deep, multi-pass answer is still the oracle's.
        let mut slow = vec![0.0; 10];
        for t in &deep.trees {
            for (s, b) in slow.iter_mut().zip(brute_force(t, &x)) {
                *s += b / deep.trees.len() as f64;
            }
        }
        for (a, b) in fresh_deep.values.iter().zip(&slow) {
            assert!((a - b).abs() < 1e-9, "fast {a} vs brute {b}");
        }
    }
}
