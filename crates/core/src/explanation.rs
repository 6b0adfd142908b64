//! The attribution type every explainer produces.

use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A local feature-attribution explanation for one prediction.
///
/// Additive-attribution semantics (the SHAP family and LIME-as-effects both
/// satisfy it, the latter approximately): `base_value + Σ values ≈
/// prediction`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Attribution {
    /// Feature names, aligned with `values`. Shared, not owned: every
    /// explanation of one model carries the same names, and a holder of
    /// many attributions (a cache) keeps one copy by pointing them all at
    /// one allocation.
    pub names: Arc<[String]>,
    /// Signed per-feature contributions φ.
    pub values: Vec<f64>,
    /// Expected model output over the background (`E[f(X)]`).
    pub base_value: f64,
    /// Model output at the explained instance.
    pub prediction: f64,
    /// Which method produced this (for reports and evaluation bookkeeping).
    pub method: String,
}

impl Attribution {
    /// Number of features.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the attribution covers no features.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Indices sorted by |φ| descending.
    pub fn order_by_magnitude(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.values.len()).collect();
        idx.sort_by(|&i, &j| {
            self.values[j]
                .abs()
                .partial_cmp(&self.values[i].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        idx
    }

    /// The `k` most influential features as `(name, φ)` pairs.
    pub fn top_k(&self, k: usize) -> Vec<(&str, f64)> {
        self.order_by_magnitude()
            .into_iter()
            .take(k)
            .map(|i| (self.names[i].as_str(), self.values[i]))
            .collect()
    }

    /// Efficiency-axiom residual: `prediction − base_value − Σφ`.
    /// Exactly-efficient methods (exact Shapley, TreeSHAP, KernelSHAP with
    /// the constraint) keep this at numerical noise.
    pub fn efficiency_gap(&self) -> f64 {
        self.prediction - self.base_value - self.values.iter().sum::<f64>()
    }

    /// Absolute values (the usual global-importance aggregation input).
    pub fn magnitudes(&self) -> Vec<f64> {
        self.values.iter().map(|v| v.abs()).collect()
    }
}

/// Aggregates local attributions into a global importance vector
/// (mean |φ| per feature). All attributions must share the feature count;
/// mismatching ones are skipped.
pub fn mean_absolute_attribution(attrs: &[Attribution]) -> Vec<f64> {
    let Some(first) = attrs.first() else {
        return Vec::new();
    };
    let d = first.len();
    let mut acc = vec![0.0; d];
    let mut n = 0usize;
    for a in attrs {
        if a.len() != d {
            continue;
        }
        for (s, v) in acc.iter_mut().zip(&a.values) {
            *s += v.abs();
        }
        n += 1;
    }
    if n > 0 {
        for s in &mut acc {
            *s /= n as f64;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attr(values: Vec<f64>) -> Attribution {
        Attribution {
            names: (0..values.len()).map(|i| format!("f{i}")).collect(),
            prediction: 1.0 + values.iter().sum::<f64>(),
            values,
            base_value: 1.0,
            method: "test".into(),
        }
    }

    #[test]
    fn ordering_and_top_k() {
        let a = attr(vec![0.1, -0.9, 0.5]);
        assert_eq!(a.order_by_magnitude(), vec![1, 2, 0]);
        let top = a.top_k(2);
        assert_eq!(top[0], ("f1", -0.9));
        assert_eq!(top[1], ("f2", 0.5));
        assert_eq!(a.top_k(99).len(), 3);
    }

    #[test]
    fn efficiency_gap_zero_when_constructed_consistent() {
        let a = attr(vec![0.2, 0.3]);
        assert!(a.efficiency_gap().abs() < 1e-12);
        let mut broken = a.clone();
        broken.prediction += 1.0;
        assert!((broken.efficiency_gap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn global_aggregation_averages_magnitudes() {
        let attrs = vec![attr(vec![1.0, -1.0]), attr(vec![3.0, 0.0])];
        let g = mean_absolute_attribution(&attrs);
        assert_eq!(g, vec![2.0, 0.5]);
        assert!(mean_absolute_attribution(&[]).is_empty());
    }

    #[test]
    fn mismatched_lengths_are_skipped() {
        let attrs = vec![attr(vec![1.0, 1.0]), attr(vec![9.0])];
        let g = mean_absolute_attribution(&attrs);
        assert_eq!(g, vec![1.0, 1.0]);
    }
}
