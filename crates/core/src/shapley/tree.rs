//! TreeSHAP: exact Shapley values for tree ensembles in polynomial time
//! (Lundberg, Erion & Lee, 2018 — the path-dependent variant).
//!
//! The value function is the tree's own conditional expectation: for
//! features outside the coalition, the walk splits across both children
//! weighted by training covers. The test suite checks the kernel against a
//! brute-force `2^d` evaluation of the same game and, where `2^d` cannot
//! go, against a closed form per leaf.
//!
//! One kernel serves every entry point, and it takes the Shapley weights by
//! quadrature: `k!(m−1−k)!/m! = ∫₀¹ tᵏ(1−t)^{m−1−k} dt` makes a leaf's
//! credits integrals of polynomials of degree below the number of unique
//! features on its path, exact under a Gauss–Legendre rule of half as many
//! nodes. The walk carries one lane vector down (the path product `G`),
//! returns one up (the subtree's relative sum `R`) and credits a feature
//! once, at the split that put it on the path — no per-leaf loop, no
//! unwinding. See DESIGN.md, "The TreeSHAP kernel".

use crate::explanation::Attribution;
use crate::XaiError;
use nfv_ml::forest::RandomForest;
use nfv_ml::gbdt::Gbdt;
use nfv_ml::tree::{DecisionTree, TreeNode};

/// Deepest tree the kernel walks: its recursion holds one frame per level,
/// and 256 of the widest take ~0.45 MB of a worker's 2 MiB stack (~1.2 MB
/// in a debug build).
const MAX_TREE_DEPTH: usize = 256;

/// Quadrature lanes per block: one AVX2 register, two SSE2.
const BLOCK: usize = 4;

/// Most blocks a walk carries: 32 nodes are exact for paths of up to 64
/// unique features.
const MAX_BLOCKS: usize = 8;

/// One value per quadrature node.
type Lanes<const B: usize> = [[f64; BLOCK]; B];

fn map<const B: usize>(a: &Lanes<B>, f: impl Fn(f64) -> f64) -> Lanes<B> {
    std::array::from_fn(|i| std::array::from_fn(|q| f(a[i][q])))
}

fn zip<const B: usize>(a: &Lanes<B>, b: &Lanes<B>, f: impl Fn(f64, f64) -> f64) -> Lanes<B> {
    std::array::from_fn(|i| std::array::from_fn(|q| f(a[i][q], b[i][q])))
}

/// `Σ_q a_q·b_q`, summed in register order: blocks lane-wise, then halves.
fn dot<const B: usize>(a: &Lanes<B>, b: &Lanes<B>) -> f64 {
    let mut s = [0.0; BLOCK];
    for (a, b) in a.iter().zip(b) {
        s = std::array::from_fn(|q| s[q] + a[q] * b[q]);
    }
    (s[0] + s[2]) + (s[1] + s[3])
}

/// The `n`-point Gauss–Legendre rule on [0, 1], exact for polynomials of
/// degree `≤ 2n − 1`: writes the nodes into `t` and the weights (which sum
/// to 1) into `w`, both of length `n`.
fn gauss_legendre(t: &mut [f64], w: &mut [f64]) {
    let n = t.len();
    for i in 0..n.div_ceil(2) {
        // Newton on the Legendre polynomial P_n over [−1, 1] from the
        // classical guess; its roots come in ± pairs.
        let mut x = (std::f64::consts::PI * (i as f64 + 0.75) / (n as f64 + 0.5)).cos();
        let mut slope = 0.0;
        for _ in 0..64 {
            let (mut below, mut p) = (1.0, x);
            for k in 2..=n {
                let k = k as f64;
                (below, p) = (p, ((2.0 * k - 1.0) * x * p - (k - 1.0) * below) / k);
            }
            slope = n as f64 * (x * p - below) / (x * x - 1.0);
            let step = p / slope;
            x -= step;
            if step.abs() <= f64::EPSILON {
                break;
            }
        }
        (t[i], t[n - 1 - i]) = (0.5 - 0.5 * x, 0.5 + 0.5 * x);
        let weight = 1.0 / ((1.0 - x * x) * slope * slope);
        (w[i], w[n - 1 - i]) = (weight, weight);
    }
}

/// Where a feature stands on the path to the node being visited.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
enum OnPath {
    /// Not split on yet.
    #[default]
    Absent,
    /// x follows every split on it so far; the payload is `z`, the product
    /// of the cover fractions that flow on when the feature is *excluded*.
    Hot(f64),
    /// x left the path at a split on it: including the feature zeroes the
    /// leaf, so its fraction only ever scales the path product.
    Cold,
}

/// The kernel's reusable memory, one entry per feature. Reset at every
/// call, so reuse across models cannot change a result bit.
#[derive(Debug, Default, Clone)]
pub struct TreeShapScratch {
    on_path: Vec<OnPath>,
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
    /// Lane blocks of the quadrature: `4·blocks ≥ ⌈min(depth, d)/2⌉`
    /// nodes, a function of the model alone.
    blocks: usize,
    /// Gauss–Legendre nodes on [0, 1], the first `blocks` in use.
    nodes: Lanes<MAX_BLOCKS>,
    /// Their weights.
    weights: Lanes<MAX_BLOCKS>,
}

impl TreeShapConsts {
    fn new(n_features: usize, trees: &[DecisionTree], base_value: f64, scale: f64) -> Self {
        let max_depth = trees.iter().map(DecisionTree::depth).max().unwrap_or(0);
        // A path has at most min(depth, d) unique features, and a leaf's
        // integrands one degree less: half as many nodes are exact.
        let unique = max_depth.min(n_features);
        let blocks = unique.div_ceil(2 * BLOCK).clamp(1, MAX_BLOCKS);
        let (mut nodes, mut weights) = ([[0.0; BLOCK]; MAX_BLOCKS], [[0.0; BLOCK]; MAX_BLOCKS]);
        gauss_legendre(
            nodes[..blocks].as_flattened_mut(),
            weights[..blocks].as_flattened_mut(),
        );
        TreeShapConsts {
            n_features,
            base_value,
            scale,
            max_depth,
            blocks,
            nodes,
            weights,
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

    /// Whether the kernel can walk the ensemble: no tree deeper than 256
    /// levels (the recursion's stack) and no path of more than 64 unique
    /// features (the widest quadrature).
    pub fn check(&self) -> Result<(), XaiError> {
        let (depth, d, widest) = (self.max_depth, self.n_features, 2 * BLOCK * MAX_BLOCKS);
        if depth <= MAX_TREE_DEPTH && depth.min(d) <= widest {
            return Ok(());
        }
        Err(XaiError::Input(format!(
            "tree-shap walks trees of at most {MAX_TREE_DEPTH} levels and {widest} unique \
             features per path; this ensemble has {depth} levels over {d} features"
        )))
    }
}

/// The walk of one request, one tree (`nodes`) at a time, on `4·B`
/// quadrature nodes.
struct Walk<'a, const B: usize> {
    nodes: &'a [TreeNode],
    x: &'a [f64],
    /// Leaf values are multiplied by this (the tree's ensemble weight).
    scale: f64,
    /// The quadrature nodes `t` and their complements `1 − t`.
    t: Lanes<B>,
    one_minus_t: Lanes<B>,
    on_path: &'a mut [OnPath],
    phi: &'a mut [f64],
}

impl<const B: usize> Walk<'_, B> {
    /// `t + (1 − t)·z`: the factor of a hot element with excluded fraction
    /// `z` — included with probability `t`, flowing on with `z` otherwise.
    fn hot_edge(&self, z: f64) -> Lanes<B> {
        zip(&self.t, &self.one_minus_t, |t, u| t + u * z)
    }

    /// Visits `node`, whose path product is `g` (one factor per unique
    /// feature on the path, times the quadrature weight), and returns the
    /// subtree's relative sum `R = Σ_leaves v·G(leaf) ⊘ g`.
    fn visit(&mut self, node: u32, g: &Lanes<B>) -> Lanes<B> {
        let n = &self.nodes[node as usize];
        if n.is_leaf {
            return [[n.value * self.scale; BLOCK]; B];
        }
        let f = n.feature;
        let goes_left = self.x.get(f).copied().unwrap_or(0.0) <= n.threshold;
        let (hot_child, cold_child) = if goes_left {
            (n.left, n.right)
        } else {
            (n.right, n.left)
        };
        let inv_cover = 1.0 / n.cover;
        let hot_z = self.nodes[hot_child as usize].cover * inv_cover;
        let cold_z = self.nodes[cold_child as usize].cover * inv_cover;
        let prior = self.on_path[f];
        // `base` is the path product without f's factor; the fraction f
        // holds so far scales both children's.
        let (base, z_old) = match prior {
            OnPath::Cold => {
                // f already zeroes these leaves when included: the split
                // only thins the flow, and the split that made f cold has
                // the credit.
                let r_hot = self.visit(hot_child, &map(g, |g| g * hot_z));
                let r_cold = self.visit(cold_child, &map(g, |g| g * cold_z));
                return zip(&r_hot, &r_cold, |h, c| hot_z * h + cold_z * c);
            }
            OnPath::Absent => (*g, None),
            OnPath::Hot(z) => (zip(g, &self.hot_edge(z), |g, a| g / a), Some(z)),
        };
        let z = z_old.unwrap_or(1.0);
        let (hot_z, cold_z) = (z * hot_z, z * cold_z);
        self.on_path[f] = OnPath::Hot(hot_z);
        let r_hot = self.visit(hot_child, &zip(&base, &self.hot_edge(hot_z), |g, a| g * a));
        self.on_path[f] = OnPath::Cold;
        // A cold element zeroes the leaf when included: its factor is (1 − t)·z.
        let g_cold = zip(&base, &self.one_minus_t, |g, u| g * u * cold_z);
        let r_cold = self.visit(cold_child, &g_cold);
        self.on_path[f] = prior;
        let (r, credit) = self.join(&r_hot, hot_z, &r_cold, cold_z, z_old);
        self.phi[f] += dot(&base, &credit);
        r
    }

    /// The way back up through a split on a feature that is `z_old`, hot,
    /// above it: the subtree's relative sum and the feature's credit for its
    /// leaves per quadrature node (still to be weighted by `base`).
    fn join(
        &self,
        r_hot: &Lanes<B>,
        hot_z: f64,
        r_cold: &Lanes<B>,
        cold_z: f64,
        z_old: Option<f64>,
    ) -> (Lanes<B>, Lanes<B>) {
        let hot = zip(&self.hot_edge(hot_z), r_hot, |a, r| a * r);
        let cold = zip(&self.one_minus_t, r_cold, |u, r| u * cold_z * r);
        let r = zip(&hot, &cold, |h, c| h + c);
        let credit = zip(r_hot, r_cold, |h, c| (1.0 - hot_z) * h - cold_z * c);
        let Some(z) = z_old else {
            return (r, credit);
        };
        // The split that first put the feature on the path will credit
        // these leaves as hot with fraction `z`; take that back here, where
        // their own fractions are known.
        let r = zip(&r, &self.hot_edge(z), |r, a| r / a);
        let credit = zip(&credit, &r, |c, r| c - (1.0 - z) * r);
        (r, credit)
    }
}

/// Walks every tree on `4·B` quadrature nodes, accumulating into `phi`.
fn walk_trees<const B: usize>(
    trees: &[DecisionTree],
    consts: &TreeShapConsts,
    x: &[f64],
    on_path: &mut [OnPath],
    phi: &mut [f64],
) {
    let t: Lanes<B> = std::array::from_fn(|i| consts.nodes[i]);
    let mut walk = Walk {
        nodes: &[],
        x,
        scale: consts.scale,
        t,
        one_minus_t: map(&t, |t| 1.0 - t),
        on_path,
        phi,
    };
    // The root's path product is the quadrature weight itself, so a credit
    // is a plain lane sum.
    let weights: Lanes<B> = std::array::from_fn(|i| consts.weights[i]);
    for t in trees.iter().filter(|t| !t.nodes.is_empty()) {
        walk.nodes = &t.nodes;
        walk.visit(0, &weights);
    }
}

/// The tree's path-dependent expected value (the base value of its
/// attributions): leaf values weighted by training covers.
pub fn tree_expected_value(tree: &DecisionTree) -> f64 {
    // Children sit after their parent (`DecisionTree::check_structure`): a
    // reverse pass meets both children first, however deep the tree.
    let nodes = &tree.nodes;
    let mut expected = vec![0.0; nodes.len()];
    for (i, n) in nodes.iter().enumerate().rev() {
        expected[i] = if n.is_leaf {
            n.value
        } else {
            let (l, r) = (n.left as usize, n.right as usize);
            (nodes[l].cover * expected[l] + nodes[r].cover * expected[r]) / n.cover
        };
    }
    expected.first().copied().unwrap_or(0.0)
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
    consts.check()?;
    scratch.on_path.clear();
    scratch.on_path.resize(x.len(), OnPath::Absent);
    let mut phi = vec![0.0; x.len()];
    let walk = match consts.blocks {
        1 => walk_trees::<1>,
        2 => walk_trees::<2>,
        3 => walk_trees::<3>,
        4 => walk_trees::<4>,
        5 => walk_trees::<5>,
        6 => walk_trees::<6>,
        7 => walk_trees::<7>,
        _ => walk_trees::<MAX_BLOCKS>,
    };
    walk(trees, consts, x, &mut scratch.on_path, &mut phi);
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
    fn deep_forest(rows: usize, d: usize, max_depth: usize, seed: u64) -> (Dataset, RandomForest) {
        let s = friedman1(rows, d, 0.2, seed).unwrap();
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

    /// A forest's reference values: the mean of a per-tree reference.
    fn forest_mean(forest: &RandomForest, of: impl Fn(&DecisionTree) -> Vec<f64>) -> Vec<f64> {
        let mut mean = vec![0.0; forest.n_features];
        for t in &forest.trees {
            for (s, v) in mean.iter_mut().zip(of(t)) {
                *s += v / forest.trees.len() as f64;
            }
        }
        mean
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
            let (data, forest) = deep_forest(150, d, max_depth, seed);
            let x = data.row(row).to_vec();
            let fast = forest_shap(&forest, &x, &names(d)).unwrap();
            let slow = forest_mean(&forest, |t| brute_force(t, &x));
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
        let (data, deep) = deep_forest(150, 10, 12, 61);
        let (_, shallow) = deep_forest(150, 10, 3, 62);
        // The row whose own path carries the most unique features — more
        // than a lane block — on a deep model that runs a block wider than
        // the shallow one.
        let most_hot = |x: &[f64]| {
            let hot = deep.trees.iter().map(|t| hot_features_on_own_path(t, x));
            hot.max().unwrap()
        };
        let x = (0..data.n_rows())
            .map(|i| data.row(i).to_vec())
            .max_by_key(|x| most_hot(x))
            .unwrap();
        assert!(most_hot(&x) > BLOCK, "need a path wider than one block");
        let blocks = |f: &RandomForest| TreeShapConsts::forest(f).blocks;
        assert!(blocks(&deep) > blocks(&shallow));
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
            assert!(scratch.on_path.iter().all(|p| *p == OnPath::Absent));
        }
        // The deep, two-block answer is still the oracle's.
        let slow = forest_mean(&deep, |t| brute_force(t, &x));
        for (a, b) in fresh_deep.values.iter().zip(&slow) {
            assert!((a - b).abs() < 1e-9, "fast {a} vs brute {b}");
        }
    }

    /// The reference where `2^d` cannot go: path-dependent Shapley values
    /// in closed form, leaf by leaf. With `h` hot fractions `z`, `c` cold
    /// ones of product `Z_C` and `m = h + c`, the other hot elements put
    /// `s` members in a coalition with total fraction `e_{h'−s}` (the
    /// elementary symmetric polynomials of their `z`), weighted
    /// `s!(m−1−s)!/m!`. No quadrature, none of the kernel's code.
    fn closed_form(tree: &DecisionTree, x: &[f64]) -> Vec<f64> {
        fn leaf(path: &[(usize, f64, bool)], v: f64, phi: &mut [f64]) {
            let m = path.len();
            let hot: Vec<f64> = path.iter().filter(|e| e.2).map(|e| e.1).collect();
            let cold_z: f64 = path.iter().filter(|e| !e.2).map(|e| e.1).product();
            let h = hot.len();
            // weight[s] = s!(m−1−s)!/m!
            let mut weight = vec![1.0 / m as f64; m];
            for s in 1..m {
                weight[s] = weight[s - 1] * s as f64 / (m - s) as f64;
            }
            // e[k] of the hot fractions but the `skip`-th: Π (1 + z·y) =
            // Σ e_k y^k, rebuilt per element — sums of positive terms only,
            // where dividing one factor back out loses every digit by 64.
            let symmetric = |skip: Option<usize>| {
                let mut e = vec![1.0];
                for (_, z) in hot.iter().enumerate().filter(|(i, _)| Some(*i) != skip) {
                    e.push(0.0);
                    for k in (1..e.len()).rev() {
                        e[k] += z * e[k - 1];
                    }
                }
                e
            };
            // `others` fractions in play, `s` of them in the coalition.
            let credit = |e: Vec<f64>| {
                let others = e.len() - 1;
                let terms = (0..=others).map(|s| e[others - s] * weight[s]);
                terms.sum::<f64>() * v * cold_z
            };
            let cold = if h < m { credit(symmetric(None)) } else { 0.0 };
            let mut nth_hot = 0;
            for &(f, z, is_hot) in path {
                if is_hot {
                    phi[f] += (1.0 - z) * credit(symmetric(Some(nth_hot)));
                    nth_hot += 1;
                } else {
                    phi[f] -= cold;
                }
            }
        }
        fn walk(
            tree: &DecisionTree,
            i: usize,
            x: &[f64],
            path: &mut Vec<(usize, f64, bool)>,
            phi: &mut [f64],
        ) {
            let n = &tree.nodes[i];
            if n.is_leaf {
                if !path.is_empty() {
                    leaf(path, n.value, phi);
                }
                return;
            }
            let (hot, cold) = if x[n.feature] <= n.threshold {
                (n.left as usize, n.right as usize)
            } else {
                (n.right as usize, n.left as usize)
            };
            let at = path.iter().position(|e| e.0 == n.feature);
            let (_, z, follows) = at.map_or((0, 1.0, true), |k| path.remove(k));
            for (child, is_hot) in [(hot, follows), (cold, false)] {
                path.push((n.feature, z * tree.nodes[child].cover / n.cover, is_hot));
                walk(tree, child, x, path, phi);
                path.pop();
            }
            if let Some(k) = at {
                path.insert(k, (n.feature, z, follows));
            }
        }
        let mut phi = vec![0.0; x.len()];
        walk(tree, 0, x, &mut Vec::new(), &mut phi);
        phi
    }

    fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
        let diffs = a.iter().zip(b).map(|(a, b)| (a - b).abs());
        diffs.fold(0.0, f64::max)
    }

    #[test]
    fn closed_form_reference_matches_brute_force() {
        for (d, max_depth, seed) in [(5, 12, 81), (8, 10, 82), (10, 12, 83)] {
            let (data, forest) = deep_forest(150, d, max_depth, seed);
            for row in [0, 57, 149] {
                let x = data.row(row);
                for t in &forest.trees {
                    let gap = max_abs_diff(&closed_form(t, x), &brute_force(t, x));
                    assert!(gap < 1e-12, "d {d} depth {max_depth} row {row}: {gap}");
                }
            }
        }
    }

    #[test]
    fn wide_and_deep_forests_match_the_closed_form() {
        for (d, max_depth, blocks) in [(20, 20, 3), (30, 16, 2), (12, 27, 2), (40, 12, 2)] {
            let (data, forest) = deep_forest(1_500, d, max_depth, 90 + d as u64);
            let reached = forest.trees.iter().map(DecisionTree::depth).max().unwrap();
            assert!(reached >= max_depth.min(18), "d {d}: depth {reached}");
            assert_eq!(TreeShapConsts::forest(&forest).blocks, blocks);
            for row in [3, 700, 1_499] {
                let x = data.row(row);
                let fast = forest_shap(&forest, x, &names(d)).unwrap();
                let reference = forest_mean(&forest, |t| closed_form(t, x));
                let gap = max_abs_diff(&fast.values, &reference);
                assert!(gap < 1e-10, "d {d} depth {max_depth} row {row}: {gap}");
                assert!(fast.efficiency_gap().abs() < 1e-9);
            }
        }
    }

    /// `levels` splits down the left, every right child a leaf; level `k`
    /// splits on feature `k % d` at 0, so `x[f] <= 0` stays on the chain.
    fn left_chain(levels: usize, d: usize) -> DecisionTree {
        let leaf = |k: usize| TreeNode {
            feature: 0,
            threshold: 0.0,
            left: 0,
            right: 0,
            value: (k as f64).sin(),
            cover: 1.0,
            is_leaf: true,
        };
        let mut nodes = Vec::with_capacity(2 * levels + 1);
        for k in 0..levels {
            nodes.push(TreeNode {
                feature: k % d,
                left: 2 * k as u32 + 2,
                right: 2 * k as u32 + 1,
                cover: (levels - k + 1) as f64,
                is_leaf: false,
                ..leaf(k)
            });
            nodes.push(leaf(k));
        }
        nodes.push(leaf(levels));
        DecisionTree {
            nodes: nodes.into(),
            n_features: d,
            task: Task::Regression,
        }
    }

    /// Inputs that follow the chain to its end, leave it at once, and mix.
    fn chain_inputs(d: usize) -> [Vec<f64>; 3] {
        let mixed = (0..d).map(|j| if j % 3 == 1 { 1.0 } else { -1.0 });
        [vec![-1.0; d], vec![1.0; d], mixed.collect()]
    }

    #[test]
    fn paths_on_both_sides_of_a_lane_block_match_the_closed_form() {
        // 8 | 9 | 16 | 17 unique features: the last path one and two blocks
        // integrate exactly and the first that needs the next; then one path
        // per wider walk, so every instantiation of the kernel has run.
        let shapes = [
            (8, 1),
            (9, 2),
            (16, 2),
            (17, 3),
            (25, 4),
            (33, 5),
            (41, 6),
            (49, 7),
        ];
        for (unique, blocks) in shapes {
            let tree = left_chain(unique, unique);
            assert_eq!(TreeShapConsts::tree(&tree).blocks, blocks);
            for x in chain_inputs(unique) {
                let fast = tree_shap(&tree, &x, &names(unique)).unwrap();
                let gap = max_abs_diff(&fast.values, &closed_form(&tree, &x));
                assert!(gap < 1e-13, "{unique} unique features: {gap}");
                assert!(fast.efficiency_gap().abs() < 1e-13);
            }
        }
    }

    /// Runs `f` on a thread with the 2 MiB stack of a serve worker.
    fn on_a_worker_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let thread = std::thread::Builder::new().stack_size(2 << 20);
        thread.spawn(f).unwrap().join().unwrap()
    }

    #[test]
    fn the_deepest_trees_it_accepts_are_answered() {
        // 200 levels over 5 features (every path repeats them), and the
        // bound itself: 256 levels over 64 features, the widest frames.
        for (levels, d) in [(200, 5), (MAX_TREE_DEPTH, 2 * BLOCK * MAX_BLOCKS)] {
            on_a_worker_stack(move || {
                let tree = left_chain(levels, d);
                for x in chain_inputs(d) {
                    let fast = tree_shap(&tree, &x, &names(d)).unwrap();
                    let gap = max_abs_diff(&fast.values, &closed_form(&tree, &x));
                    assert!(gap < 1e-12, "{levels} levels over {d}: {gap}");
                    assert!(fast.efficiency_gap().abs() < 1e-12);
                }
            });
        }
    }

    #[test]
    fn deeper_or_wider_trees_are_typed_errors() {
        for (levels, d) in [(257, 3), (65, 65), (2_000, 3), (30_000, 3), (60_000, 3)] {
            let result = on_a_worker_stack(move || {
                let tree = left_chain(levels, d);
                let (consts, x) = (TreeShapConsts::tree(&tree), vec![0.0; d]);
                let mut scratch = TreeShapScratch::default();
                let trees = std::slice::from_ref(&tree);
                let result = ensemble_shap(trees, &consts, 0.0, &x, &names(d), &mut scratch);
                assert_eq!(
                    scratch.on_path.capacity(),
                    0,
                    "no scratch for a refused model"
                );
                result
            });
            assert!(
                matches!(result, Err(XaiError::Input(ref m)) if m.contains("levels")),
                "{levels} levels over {d}: {result:?}"
            );
        }
    }

    #[test]
    fn gauss_legendre_integrates_monomials_exactly() {
        for n in 1..=BLOCK * MAX_BLOCKS {
            let (mut t, mut w) = (vec![0.0; n], vec![0.0; n]);
            gauss_legendre(&mut t, &mut w);
            assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-14, "n = {n}");
            assert!(t.iter().all(|&t| 0.0 < t && t < 1.0));
            for k in 0..2 * n {
                let moment: f64 = t.iter().zip(&w).map(|(t, w)| w * t.powi(k as i32)).sum();
                let exact = 1.0 / (k as f64 + 1.0);
                assert!((moment - exact).abs() < 1e-14, "n = {n}, k = {k}: {moment}");
            }
        }
    }
}
