//! LIME for tabular data (Ribeiro et al., 2016): a locally-weighted ridge
//! surrogate fitted on Gaussian perturbations of the explained instance.
//!
//! Attribution values are reported as *effects* — `coefficient × (x_j −
//! background mean_j)` — so LIME explanations live on the same additive
//! scale as the SHAP family and can enter the same fidelity/agreement
//! comparisons. The raw local coefficients are also returned.

use crate::background::Background;
use crate::explanation::Attribution;
use crate::XaiError;
use nfv_data::stats;
use nfv_ml::linalg::{weighted_ridge, Matrix};
use nfv_ml::model::Regressor;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// LIME configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LimeConfig {
    /// Number of perturbed samples.
    pub n_samples: usize,
    /// Kernel width as a multiple of `√d` in standardized space (0.75 is
    /// the LIME library default).
    pub kernel_width_factor: f64,
    /// Ridge regularization of the local surrogate.
    pub ridge: f64,
    /// Perturbation scale in units of each feature's background std.
    pub perturbation_scale: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LimeConfig {
    fn default() -> Self {
        Self {
            n_samples: 1_000,
            kernel_width_factor: 0.75,
            ridge: 1e-3,
            perturbation_scale: 1.0,
            seed: 0,
        }
    }
}

/// A LIME explanation: the shared [`Attribution`] (effects) plus the raw
/// local surrogate.
#[derive(Debug, Clone, PartialEq)]
pub struct LimeExplanation {
    /// Effects-form attribution (comparable to SHAP values).
    pub attribution: Attribution,
    /// Local linear coefficients in original feature units.
    pub coefficients: Vec<f64>,
    /// Surrogate intercept.
    pub intercept: f64,
    /// Weighted R² of the surrogate on its own perturbation sample — the
    /// local fidelity LIME reports.
    pub local_r2: f64,
}

fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Explains `model` at `x` with LIME.
pub fn lime(
    model: &dyn Regressor,
    x: &[f64],
    background: &Background,
    names: &[String],
    cfg: &LimeConfig,
) -> Result<LimeExplanation, XaiError> {
    let d = x.len();
    if d == 0 {
        return Err(XaiError::Input(
            "cannot explain a zero-feature input".into(),
        ));
    }
    if background.n_features() != d || names.len() != d {
        return Err(XaiError::Input(format!(
            "shape mismatch: x has {d}, background {}, names {}",
            background.n_features(),
            names.len()
        )));
    }
    if cfg.n_samples < d + 2 {
        return Err(XaiError::Budget(format!(
            "LIME needs more samples ({}) than features + 2 ({})",
            cfg.n_samples,
            d + 2
        )));
    }

    // Per-feature stds from the background (perturbation + distance scale).
    let stds: Vec<f64> = (0..d)
        .map(|j| {
            let col: Vec<f64> = background.rows().iter().map(|r| r[j]).collect();
            let s = stats::std_dev(&col);
            if s > 1e-12 {
                s
            } else {
                1.0
            }
        })
        .collect();

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let kernel_width = cfg.kernel_width_factor * (d as f64).sqrt();
    let n = cfg.n_samples;
    // Design matrix with bias column; first sample is x itself.
    let mut xmat = Vec::with_capacity(n * (d + 1));
    let mut yvec = Vec::with_capacity(n);
    let mut wvec = Vec::with_capacity(n);
    let mut sample = vec![0.0; d];
    for i in 0..n {
        let mut dist2 = 0.0;
        for j in 0..d {
            let delta = if i == 0 {
                0.0
            } else {
                gaussian(&mut rng) * cfg.perturbation_scale * stds[j]
            };
            sample[j] = x[j] + delta;
            let std_delta = delta / stds[j];
            dist2 += std_delta * std_delta;
        }
        let w = (-dist2 / (kernel_width * kernel_width)).exp();
        xmat.push(1.0);
        xmat.extend_from_slice(&sample);
        yvec.push(model.predict(&sample));
        wvec.push(w);
    }
    let xm = Matrix::from_vec(n, d + 1, xmat).map_err(|e| XaiError::Numeric(e.to_string()))?;
    let beta = weighted_ridge(&xm, &yvec, &wvec, cfg.ridge)
        .map_err(|e| XaiError::Numeric(e.to_string()))?;
    let intercept = beta[0];
    let coefficients = beta[1..].to_vec();

    // Weighted R² of the surrogate on the perturbation sample.
    let preds: Vec<f64> = (0..n)
        .map(|i| {
            let row = xm.row(i);
            row.iter().zip(&beta).map(|(a, b)| a * b).sum()
        })
        .collect();
    let wsum: f64 = wvec.iter().sum();
    let wmean = yvec.iter().zip(&wvec).map(|(y, w)| y * w).sum::<f64>() / wsum;
    let ss_tot: f64 = yvec
        .iter()
        .zip(&wvec)
        .map(|(y, w)| w * (y - wmean).powi(2))
        .sum();
    let ss_res: f64 = yvec
        .iter()
        .zip(&preds)
        .zip(&wvec)
        .map(|((y, p), w)| w * (y - p).powi(2))
        .sum();
    let local_r2 = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else {
        0.0
    };

    // Effects form, anchored on the background mean.
    let values: Vec<f64> = coefficients
        .iter()
        .zip(x)
        .zip(&background.means)
        .map(|((c, xi), mu)| c * (xi - mu))
        .collect();
    let attribution = Attribution {
        names: names.into(),
        values,
        base_value: background.expected_output(model),
        prediction: model.predict(x),
        method: "lime".into(),
    };
    Ok(LimeExplanation {
        attribution,
        coefficients,
        intercept,
        local_r2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfv_data::prelude::*;
    use nfv_ml::model::FnModel;

    fn names(d: usize) -> Vec<String> {
        (0..d).map(|i| format!("x{i}")).collect()
    }

    #[test]
    fn recovers_a_linear_model_exactly() {
        let s = linear_gaussian(400, 3, 1, 0.0, 61).unwrap();
        let bg = Background::from_dataset(&s.data, 50, 0).unwrap();
        let coefs = s.coefficients.clone();
        let model = FnModel::new(4, move |x: &[f64]| {
            x.iter().zip(&coefs).map(|(a, b)| a * b).sum()
        });
        let x = [0.5, -1.0, 0.3, 2.0];
        let e = lime(&model, &x, &bg, &names(4), &LimeConfig::default()).unwrap();
        for (c, truth) in e.coefficients.iter().zip(&s.coefficients) {
            assert!((c - truth).abs() < 0.05, "coef {c} vs {truth}");
        }
        assert!(e.local_r2 > 0.999, "r2={}", e.local_r2);
    }

    #[test]
    fn local_gradient_of_a_nonlinear_model() {
        // f(x) = x², locally ≈ 2a·x around a. LIME's slope at a=2 should be
        // near 4 with a modest perturbation scale.
        let bg = Background::from_rows((0..20).map(|i| vec![i as f64 / 5.0]).collect()).unwrap();
        let model = FnModel::new(1, |x: &[f64]| x[0] * x[0]);
        let e = lime(
            &model,
            &[2.0],
            &bg,
            &names(1),
            &LimeConfig {
                perturbation_scale: 0.2,
                n_samples: 2_000,
                ..LimeConfig::default()
            },
        )
        .unwrap();
        assert!(
            (e.coefficients[0] - 4.0).abs() < 0.4,
            "slope {}",
            e.coefficients[0]
        );
    }

    #[test]
    fn irrelevant_feature_gets_negligible_weight() {
        let bg = Background::from_rows(
            (0..30)
                .map(|i| vec![i as f64 / 10.0, (30 - i) as f64 / 10.0])
                .collect(),
        )
        .unwrap();
        let model = FnModel::new(2, |x: &[f64]| 5.0 * x[0]);
        let e = lime(&model, &[1.0, 1.0], &bg, &names(2), &LimeConfig::default()).unwrap();
        assert!(e.coefficients[1].abs() < 0.05 * e.coefficients[0].abs());
    }

    #[test]
    fn deterministic_per_seed_and_seed_sensitive() {
        let bg = Background::from_rows((0..10).map(|i| vec![i as f64, 1.0]).collect()).unwrap();
        let model = FnModel::new(2, |x: &[f64]| x[0].sin() * x[1]);
        let cfg = LimeConfig {
            n_samples: 200,
            ..LimeConfig::default()
        };
        let a = lime(&model, &[1.0, 2.0], &bg, &names(2), &cfg).unwrap();
        let b = lime(&model, &[1.0, 2.0], &bg, &names(2), &cfg).unwrap();
        assert_eq!(a, b);
        let c = lime(
            &model,
            &[1.0, 2.0],
            &bg,
            &names(2),
            &LimeConfig { seed: 9, ..cfg },
        )
        .unwrap();
        assert_ne!(a.coefficients, c.coefficients);
    }

    #[test]
    fn guards_reject_bad_inputs() {
        let bg = Background::from_rows(vec![vec![0.0, 0.0]]).unwrap();
        let model = FnModel::new(2, |x: &[f64]| x[0]);
        assert!(lime(&model, &[], &bg, &[], &LimeConfig::default()).is_err());
        assert!(lime(
            &model,
            &[1.0, 2.0],
            &bg,
            &names(2),
            &LimeConfig {
                n_samples: 3,
                ..LimeConfig::default()
            }
        )
        .is_err());
        assert!(lime(&model, &[1.0], &bg, &names(1), &LimeConfig::default()).is_err());
    }

    #[test]
    fn constant_feature_background_does_not_divide_by_zero() {
        let bg = Background::from_rows(vec![vec![1.0, 5.0], vec![2.0, 5.0]]).unwrap();
        let model = FnModel::new(2, |x: &[f64]| x[0] + x[1]);
        let e = lime(&model, &[1.5, 5.0], &bg, &names(2), &LimeConfig::default()).unwrap();
        assert!(e.coefficients.iter().all(|c| c.is_finite()));
    }
}
