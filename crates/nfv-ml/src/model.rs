//! The model traits every explainer consumes.
//!
//! Explanation methods are model-agnostic through [`Regressor`] /
//! [`Classifier`]; tree-structure-aware methods (TreeSHAP) additionally
//! downcast to the concrete tree types.

/// A fitted regression model.
pub trait Regressor: Send + Sync {
    /// Predicts the target for one feature row.
    fn predict(&self, x: &[f64]) -> f64;

    /// Predicts a **contiguous** row-major block: `flat` holds
    /// `out.len()` rows of `d` values each, `out[i]` receives row `i`'s
    /// prediction. The only batch entry: the coalition evaluator, the
    /// fused block and every other caller with many rows go through it.
    ///
    /// The default loops [`Regressor::predict`] over the rows. Tree
    /// ensembles override it to pack and run the SoA kernel on large
    /// blocks ([`crate::soa::SoaForest`]); every override must stay
    /// **bit-identical** to `predict` row by row — callers such as
    /// `Background::coalition_values` rely on that equivalence.
    fn predict_block(&self, flat: &[f64], d: usize, out: &mut [f64]) {
        predict_rows(self, flat, d, out);
    }

    /// Number of features the model was trained on.
    fn n_features(&self) -> usize;
}

/// `out[i] = model.predict(row i of flat)`: the per-row reference walk
/// behind the default [`Regressor::predict_block`].
pub(crate) fn predict_rows<M: Regressor + ?Sized>(
    model: &M,
    flat: &[f64],
    d: usize,
    out: &mut [f64],
) {
    assert_eq!(
        flat.len(),
        out.len() * d,
        "flat block must hold out.len() rows of d values"
    );
    for (row, o) in flat.chunks_exact(d).zip(out.iter_mut()) {
        *o = model.predict(row);
    }
}

/// A fitted binary classifier. Probabilities refer to the positive class.
pub trait Classifier: Send + Sync {
    /// P(y = 1 | x) for one feature row.
    fn predict_proba(&self, x: &[f64]) -> f64;

    /// Hard label at threshold 0.5.
    fn predict_label(&self, x: &[f64]) -> f64 {
        if self.predict_proba(x) >= 0.5 {
            1.0
        } else {
            0.0
        }
    }

    /// Number of features the model was trained on.
    fn n_features(&self) -> usize;
}

/// Any classifier's probability surface is a regression surface; explainers
/// that work on `Regressor` get classifiers for free through this adapter.
pub struct ProbaSurface<'a, C: Classifier + ?Sized>(pub &'a C);

impl<C: Classifier + ?Sized> Regressor for ProbaSurface<'_, C> {
    fn predict(&self, x: &[f64]) -> f64 {
        self.0.predict_proba(x)
    }
    fn n_features(&self) -> usize {
        self.0.n_features()
    }
}

/// A closure wrapped as a model — lets the explainers target *anything*,
/// including a live simulator.
pub struct FnModel<F: Fn(&[f64]) -> f64 + Send + Sync> {
    f: F,
    d: usize,
}

impl<F: Fn(&[f64]) -> f64 + Send + Sync> FnModel<F> {
    /// Wraps `f` as a `d`-feature regressor.
    pub fn new(d: usize, f: F) -> Self {
        Self { f, d }
    }
}

impl<F: Fn(&[f64]) -> f64 + Send + Sync> Regressor for FnModel<F> {
    fn predict(&self, x: &[f64]) -> f64 {
        (self.f)(x)
    }
    fn n_features(&self) -> usize {
        self.d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Stub;
    impl Classifier for Stub {
        fn predict_proba(&self, x: &[f64]) -> f64 {
            x[0].clamp(0.0, 1.0)
        }
        fn n_features(&self) -> usize {
            1
        }
    }

    #[test]
    fn proba_surface_adapts() {
        let c = Stub;
        let r = ProbaSurface(&c);
        assert_eq!(r.predict(&[0.7]), 0.7);
        assert_eq!(r.n_features(), 1);
        assert_eq!(c.predict_label(&[0.7]), 1.0);
        assert_eq!(c.predict_label(&[0.2]), 0.0);
    }

    #[test]
    fn fn_model_wraps_closures() {
        let m = FnModel::new(2, |x: &[f64]| x[0] + 2.0 * x[1]);
        assert_eq!(m.predict(&[1.0, 3.0]), 7.0);
        assert_eq!(m.n_features(), 2);
        let mut block = [0.0; 2];
        m.predict_block(&[1.0, 0.0, 0.0, 1.0], 2, &mut block);
        assert_eq!(block, [1.0, 2.0]);
    }
}
