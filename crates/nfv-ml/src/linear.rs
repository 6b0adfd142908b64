//! Linear models: ridge regression (the intrinsically-interpretable
//! baseline every XAI paper compares against) and logistic regression.

use crate::linalg::{dot, weighted_ridge, Matrix};
use crate::model::{Classifier, Regressor};
use crate::MlError;
use nfv_data::dataset::{Dataset, Task};
use serde::{Deserialize, Serialize};

/// Ridge linear regression fitted by normal equations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearRegression {
    /// Per-feature coefficients.
    pub coefficients: Vec<f64>,
    /// Intercept.
    pub intercept: f64,
}

impl LinearRegression {
    /// Fits with L2 penalty `lambda ≥ 0` (the intercept is not penalized —
    /// implemented by centering).
    pub fn fit(data: &Dataset, lambda: f64) -> Result<LinearRegression, MlError> {
        let n = data.n_rows();
        let d = data.n_features();
        // Center X and y so the intercept absorbs the means un-penalized.
        let mut x_mean = vec![0.0; d];
        for row in data.rows() {
            for (m, v) in x_mean.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut x_mean {
            *m /= n as f64;
        }
        let y_mean = data.y.iter().sum::<f64>() / n as f64;
        let mut buf = Vec::with_capacity(n * d);
        for row in data.rows() {
            for (v, m) in row.iter().zip(&x_mean) {
                buf.push(v - m);
            }
        }
        let xc = Matrix::from_vec(n, d, buf)?;
        let yc: Vec<f64> = data.y.iter().map(|y| y - y_mean).collect();
        let coefficients = weighted_ridge(&xc, &yc, &vec![1.0; n], lambda)?;
        let intercept = y_mean - dot(&coefficients, &x_mean);
        Ok(LinearRegression {
            coefficients,
            intercept,
        })
    }
}

impl Regressor for LinearRegression {
    fn predict(&self, x: &[f64]) -> f64 {
        self.intercept + dot(&self.coefficients, x)
    }
    fn n_features(&self) -> usize {
        self.coefficients.len()
    }
}

/// The logistic sigmoid.
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Binary logistic regression fitted by Newton–Raphson (IRLS).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogisticRegression {
    /// Per-feature coefficients.
    pub coefficients: Vec<f64>,
    /// Intercept.
    pub intercept: f64,
    /// Newton iterations actually used.
    pub iterations: usize,
}

impl LogisticRegression {
    /// Fits with L2 penalty `lambda` for at most `max_iter` Newton steps
    /// (converges when the max coefficient update drops below 1e-8).
    pub fn fit(
        data: &Dataset,
        lambda: f64,
        max_iter: usize,
    ) -> Result<LogisticRegression, MlError> {
        if data.task != Task::BinaryClassification {
            return Err(MlError::Shape(
                "logistic regression needs a binary-classification dataset".into(),
            ));
        }
        let n = data.n_rows();
        let d = data.n_features();
        // Design matrix with a leading bias column.
        let mut buf = Vec::with_capacity(n * (d + 1));
        for row in data.rows() {
            buf.push(1.0);
            buf.extend_from_slice(row);
        }
        let x = Matrix::from_vec(n, d + 1, buf)?;
        let mut beta = vec![0.0; d + 1];
        let mut iterations = 0;
        for _ in 0..max_iter.max(1) {
            iterations += 1;
            // IRLS: working response z = Xβ + (y − p)/w with w = p(1−p);
            // solve the weighted ridge for the next β.
            let eta = x.matvec(&beta)?;
            let mut w = Vec::with_capacity(n);
            let mut z = Vec::with_capacity(n);
            #[allow(clippy::needless_range_loop)] // indexes eta, data.y in lockstep
            for i in 0..n {
                let p = sigmoid(eta[i]).clamp(1e-9, 1.0 - 1e-9);
                let wi = (p * (1.0 - p)).max(1e-9);
                w.push(wi);
                z.push(eta[i] + (data.y[i] - p) / wi);
            }
            let new_beta = weighted_ridge(&x, &z, &w, lambda)?;
            let delta = beta
                .iter()
                .zip(&new_beta)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            beta = new_beta;
            if delta < 1e-8 {
                break;
            }
        }
        Ok(LogisticRegression {
            intercept: beta[0],
            coefficients: beta[1..].to_vec(),
            iterations,
        })
    }
}

impl Classifier for LogisticRegression {
    fn predict_proba(&self, x: &[f64]) -> f64 {
        sigmoid(self.intercept + dot(&self.coefficients, x))
    }
    fn n_features(&self) -> usize {
        self.coefficients.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use nfv_data::prelude::*;

    #[test]
    fn linear_recovers_generating_coefficients() {
        let s = linear_gaussian(2_000, 3, 2, 0.05, 1).unwrap();
        let m = LinearRegression::fit(&s.data, 0.0).unwrap();
        for (est, truth) in m.coefficients.iter().zip(&s.coefficients) {
            assert!((est - truth).abs() < 0.02, "est={est} truth={truth}");
        }
        assert!(m.intercept.abs() < 0.02);
        let preds: Vec<f64> = s.data.rows().map(|r| m.predict(r)).collect();
        assert!(metrics::r2(&s.data.y, &preds).unwrap() > 0.99);
    }

    #[test]
    fn ridge_shrinks_towards_zero() {
        let s = linear_gaussian(200, 2, 0, 0.3, 2).unwrap();
        let free = LinearRegression::fit(&s.data, 0.0).unwrap();
        let heavy = LinearRegression::fit(&s.data, 1e4).unwrap();
        assert!(heavy.coefficients[0].abs() < free.coefficients[0].abs() * 0.2);
    }

    #[test]
    fn sigmoid_is_stable_and_symmetric() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-15);
        assert!(sigmoid(800.0) <= 1.0);
        assert!(sigmoid(-800.0) >= 0.0);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn logistic_separates_a_linear_boundary() {
        // y = 1 iff 2·x0 − x1 > 0, plus label noise.
        let n = 1_500;
        let mut x = Vec::new();
        let mut y = Vec::new();
        let mut state = 123u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 11) as f64) / (1u64 << 53) as f64
        };
        for _ in 0..n {
            let a = 4.0 * next() - 2.0;
            let b = 4.0 * next() - 2.0;
            x.extend_from_slice(&[a, b]);
            y.push(if 2.0 * a - b > 0.0 { 1.0 } else { 0.0 });
        }
        let data = Dataset::new(
            vec!["a".into(), "b".into()],
            x,
            y,
            Task::BinaryClassification,
        )
        .unwrap();
        let m = LogisticRegression::fit(&data, 1e-3, 50).unwrap();
        let proba: Vec<f64> = data.rows().map(|r| m.predict_proba(r)).collect();
        let acc = metrics::accuracy(&data.y, &proba).unwrap();
        assert!(acc > 0.97, "acc={acc}");
        // Coefficient direction matches the boundary (ratio ≈ −2).
        let ratio = m.coefficients[0] / m.coefficients[1];
        assert!(ratio < -1.2 && ratio > -3.5, "ratio={ratio}");
        assert!(m.iterations >= 2);
    }

    #[test]
    fn logistic_rejects_regression_data() {
        let s = linear_gaussian(50, 2, 0, 0.1, 3).unwrap();
        assert!(LogisticRegression::fit(&s.data, 0.1, 10).is_err());
    }
}
