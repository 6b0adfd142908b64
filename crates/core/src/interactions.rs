//! Shapley interaction values (Grabisch & Roubens, 1999; popularized for
//! ML by the TreeSHAP-interaction work): pairwise credit `Φ_{ij}` telling
//! an operator that, e.g., high load only hurts *together with* a CPU
//! throttle — the "higher-order explanation" the survey literature calls
//! for beyond first-order heatmaps.
//!
//! Exact computation enumerates `2^d` coalition values — exact Shapley's
//! table, read with a second reduction — so it is bounded to small `d`
//! like exact Shapley; the NFV use is stage-level (pass the grouped value
//! function when d is large).

use crate::background::{Background, CoalitionWorkspace};
use crate::shapley::exact::Enumeration;
use crate::XaiError;
use nfv_ml::model::Regressor;
use serde::{Deserialize, Serialize};

/// Maximum feature count for exact interaction enumeration.
pub const MAX_INTERACTION_FEATURES: usize = 16;

/// A symmetric matrix of pairwise interaction values plus the main
/// effects on its diagonal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InteractionMatrix {
    /// Feature names.
    pub names: Vec<String>,
    /// Row-major `d×d` matrix. `m[i][j]` for `i ≠ j` is the interaction
    /// value Φ_{ij} (symmetric, each pair's total split as Φ_{ij} = Φ_{ji});
    /// `m[i][i]` is the main effect, so each row sums to the ordinary
    /// Shapley value φ_i.
    values: Vec<f64>,
    /// `E[f]` over the background.
    pub base_value: f64,
    /// `f(x)`.
    pub prediction: f64,
}

impl InteractionMatrix {
    /// Number of features.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when empty (unreachable by construction).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Entry (i, j).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.values[i * self.len() + j]
    }

    /// Row sums — the ordinary Shapley values.
    pub fn shapley_values(&self) -> Vec<f64> {
        let d = self.len();
        (0..d)
            .map(|i| (0..d).map(|j| self.get(i, j)).sum())
            .collect()
    }

    /// The `k` strongest off-diagonal pairs by |Φ_{ij}|, as
    /// `(i, j, value)` with `i < j` (value = total pair interaction,
    /// i.e. Φ_{ij} + Φ_{ji}).
    pub fn top_pairs(&self, k: usize) -> Vec<(usize, usize, f64)> {
        let d = self.len();
        let mut pairs = Vec::new();
        for i in 0..d {
            for j in (i + 1)..d {
                pairs.push((i, j, self.get(i, j) + self.get(j, i)));
            }
        }
        pairs.sort_by(|a, b| b.2.abs().total_cmp(&a.2.abs()));
        pairs.truncate(k);
        pairs
    }
}

/// Computes exact Shapley interaction values of `model` at `x` against
/// `background`.
///
/// Definitions used: for `i ≠ j` the Shapley interaction index
/// `Φ*_{ij} = Σ_{S ⊆ N\{i,j}} w₂(|S|) Δ_{ij}(S)` with the discrete second
/// difference `Δ_{ij}(S) = v(S∪{i,j}) − v(S∪{i}) − v(S∪{j}) + v(S)` and
/// `w₂(s) = s!(d−s−2)!/(d−1)!`; the reported `Φ_{ij} = Φ_{ji} = Φ*_{ij}/2`
/// (the pair total split evenly), and main effects are
/// `Φ_{ii} = φ_i − Σ_{j≠i} Φ_{ij}` so rows sum to the Shapley values.
/// The coalition table and φ are exact Shapley's
/// ([`crate::shapley::Enumeration::Interactions`]), evaluated chunk by
/// chunk.
pub fn interaction_values(
    model: &dyn Regressor,
    x: &[f64],
    background: &Background,
    names: &[String],
) -> Result<InteractionMatrix, XaiError> {
    let mut ws = CoalitionWorkspace::default();
    let flat = Enumeration::Interactions.explain(model, x, background, names, &mut ws)?;
    Ok(InteractionMatrix {
        names: names.to_vec(),
        values: flat.values,
        base_value: flat.base_value,
        prediction: flat.prediction,
    })
}

/// Reduces a full `2^d` coalition table `v` and its Shapley values `phi`
/// to the row-major `d×d` interaction matrix of [`interaction_values`].
pub(crate) fn interaction_matrix(v: &[f64], phi: &[f64]) -> Vec<f64> {
    let d = phi.len();
    let mut fact = vec![1.0f64; d + 1];
    for i in 1..=d {
        fact[i] = fact[i - 1] * i as f64;
    }
    // Pair weight w₂(s) over subsets excluding both players
    // (Grabisch–Roubens interaction index; the ½ appears only when the
    // pair total is split onto the two symmetric matrix entries below).
    let w2 = |s: usize| fact[s] * fact[d - s - 2] / fact[d - 1];

    let mut inter = vec![0.0; d * d];
    for (mask, &v_s) in v.iter().enumerate() {
        let s = mask.count_ones() as usize;
        if s > d - 2 {
            continue;
        }
        let w = w2(s);
        for i in 0..d {
            if (mask >> i) & 1 == 1 {
                continue;
            }
            for j in (i + 1)..d {
                if (mask >> j) & 1 == 1 {
                    continue;
                }
                let delta =
                    v[mask | (1 << i) | (1 << j)] - v[mask | (1 << i)] - v[mask | (1 << j)] + v_s;
                let contribution = w * delta;
                // Split evenly onto both symmetric entries.
                inter[i * d + j] += contribution / 2.0;
                inter[j * d + i] += contribution / 2.0;
            }
        }
    }
    // Diagonal: main effect so rows sum to φ.
    for i in 0..d {
        let off: f64 = (0..d).filter(|&j| j != i).map(|j| inter[i * d + j]).sum();
        inter[i * d + i] = phi[i] - off;
    }
    inter
}

/// The names of the flattened matrix's entries: `names[i]` on the
/// diagonal, `"a×b"` off it.
pub(crate) fn pair_names(names: &[String]) -> Vec<String> {
    let mut out = Vec::with_capacity(names.len() * names.len());
    for (i, a) in names.iter().enumerate() {
        for (j, b) in names.iter().enumerate() {
            out.push(if i == j {
                a.clone()
            } else {
                format!("{a}×{b}")
            });
        }
    }
    out
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
    fn additive_model_has_zero_interactions() {
        let bg = Background::from_rows(vec![vec![0.0, 1.0, -1.0], vec![1.0, 0.0, 2.0]]).unwrap();
        let model = FnModel::new(3, |x: &[f64]| 2.0 * x[0] - x[1] + x[2] * x[2]);
        let m = interaction_values(&model, &[1.0, 2.0, 3.0], &bg, &names(3)).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    assert!(m.get(i, j).abs() < 1e-9, "Φ[{i}][{j}] = {}", m.get(i, j));
                }
            }
        }
    }

    #[test]
    fn product_model_concentrates_in_the_pair() {
        // f = x0·x1 with zero background: the entire output is the pair
        // interaction; main effects vanish.
        let bg = Background::from_rows(vec![vec![0.0, 0.0, 0.0]]).unwrap();
        let model = FnModel::new(3, |x: &[f64]| x[0] * x[1]);
        let m = interaction_values(&model, &[2.0, 3.0, 7.0], &bg, &names(3)).unwrap();
        let pair = m.get(0, 1) + m.get(1, 0);
        assert!((pair - 6.0).abs() < 1e-9, "pair total {pair}");
        assert!(m.get(0, 0).abs() < 1e-9, "main effect {}", m.get(0, 0));
        assert!(m.get(2, 2).abs() < 1e-9);
        let top = m.top_pairs(1);
        assert_eq!((top[0].0, top[0].1), (0, 1));
    }

    #[test]
    fn rows_sum_to_shapley_values() {
        let bg = Background::from_rows(vec![
            vec![0.5, -1.0, 2.0, 0.0],
            vec![1.0, 1.0, -1.0, 1.0],
            vec![0.0, 0.3, 0.7, -0.5],
        ])
        .unwrap();
        let model = FnModel::new(4, |x: &[f64]| {
            x[0] * x[1] + (x[2] - x[3]).powi(2) + 0.5 * x[0]
        });
        let x = [1.2, -0.7, 0.4, 1.9];
        let m = interaction_values(&model, &x, &bg, &names(4)).unwrap();
        let from_matrix = m.shapley_values();
        let direct = exact_shapley(&model, &x, &bg, &names(4)).unwrap();
        for (a, b) in from_matrix.iter().zip(&direct.values) {
            assert!((a - b).abs() < 1e-9, "matrix row {a} vs shapley {b}");
        }
        // Total conservation too.
        let total: f64 = from_matrix.iter().sum();
        assert!((total - (m.prediction - m.base_value)).abs() < 1e-9);
    }

    #[test]
    fn the_phi_behind_the_diagonal_is_exact_shapleys_bit_for_bit() {
        // Φ_ii = φ_i − Σ_{j≠i} Φ_ij: with the off-diagonal sum taken in the
        // matrix's own order, each diagonal entry must be exact Shapley's
        // φ_i minus it, to the bit — the interaction table's φ is exact's.
        let bg = Background::from_rows(vec![
            vec![0.5, -1.0, 2.0, 0.0, 1.5],
            vec![1.0, 1.0, -1.0, 1.0, -0.25],
            vec![0.0, 0.3, 0.7, -0.5, 2.0],
        ])
        .unwrap();
        let model = FnModel::new(5, |x: &[f64]| {
            x[0] * x[1] + (x[2] - x[3]).powi(2) + 0.5 * x[0] * x[4].sin()
        });
        let x = [1.2, -0.7, 0.4, 1.9, 0.3];
        let m = interaction_values(&model, &x, &bg, &names(5)).unwrap();
        let phi = exact_shapley(&model, &x, &bg, &names(5)).unwrap().values;
        for (i, p) in phi.iter().enumerate() {
            let off: f64 = (0..5).filter(|&j| j != i).map(|j| m.get(i, j)).sum();
            assert_eq!(m.get(i, i).to_bits(), (p - off).to_bits(), "row {i}");
        }
    }

    #[test]
    fn symmetric_entries() {
        let bg = Background::from_rows(vec![vec![0.0, 0.0, 1.0]]).unwrap();
        let model = FnModel::new(3, |x: &[f64]| x[0] * x[1] * x[2]);
        let m = interaction_values(&model, &[1.0, 2.0, 3.0], &bg, &names(3)).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
    }

    #[test]
    fn guards() {
        let bg = Background::from_rows(vec![vec![0.0]]).unwrap();
        let model = FnModel::new(1, |x: &[f64]| x[0]);
        assert!(
            interaction_values(&model, &[1.0], &bg, &names(1)).is_err(),
            "d < 2"
        );
        let big = vec![0.0; MAX_INTERACTION_FEATURES + 1];
        let bg_big = Background::from_rows(vec![big.clone()]).unwrap();
        let model_big = FnModel::new(big.len(), |x: &[f64]| x[0]);
        assert!(
            interaction_values(&model_big, &big, &bg_big, &names(big.len())).is_err(),
            "budget cap"
        );
    }
}
