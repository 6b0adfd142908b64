//! LIME for tabular data (Ribeiro et al., 2016): a locally-weighted ridge
//! surrogate fitted on Gaussian perturbations of the explained instance.
//!
//! Attribution values are reported as *effects* — `coefficient × (x_j −
//! background mean_j)` — so LIME explanations live on the same additive
//! scale as the SHAP family and can enter the same fidelity/agreement
//! comparisons. The raw local coefficients are also returned.
//!
//! LIME runs on the shared plan → evaluate → finish pipeline of the
//! coalition methods: [`lime_plan`] draws the perturbations and their
//! kernel weights and stacks each perturbed sample into a [`FusedBlock`]
//! as one row, one `predict_block` call evaluates the block, and
//! [`lime_finish`] fits the surrogate on the plan's slice of it. [`lime`]
//! is those three steps for one request.

use crate::background::{Background, FusedBlock};
use crate::explanation::Attribution;
use crate::{check_plan_values, XaiError};
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

/// Explains `model` at `x` with LIME: [`lime_plan`] on a block of its
/// own, one evaluation, [`lime_finish`].
pub fn lime(
    model: &dyn Regressor,
    x: &[f64],
    background: &Background,
    names: &[String],
    cfg: &LimeConfig,
) -> Result<LimeExplanation, XaiError> {
    let mut block = FusedBlock::default();
    let plan = lime_plan(model, x, background, cfg, None, &mut block)?;
    block.evaluate(model);
    lime_finish(&plan, &block, names)
}

/// The plan half of LIME for cross-request fusion: the perturbed samples
/// are stacked into a shared block, one row each, not yet evaluated; after
/// [`FusedBlock::evaluate`], [`lime_finish`] fits the surrogate.
#[derive(Debug, Clone)]
pub struct LimePlan {
    /// First perturbation row of this plan within its block.
    first_row: usize,
    /// Kernel weight of each perturbation row, in row order.
    weights: Vec<f64>,
    /// `x − background mean` per feature, the effects-form anchor. Taken
    /// from `x` itself: row 0 holds `x + 0.0`, which turns `-0.0` into
    /// `+0.0`.
    centred: Vec<f64>,
    base: f64,
    fx: f64,
    ridge: f64,
}

impl LimePlan {
    /// Perturbation rows this plan occupies in its block.
    pub fn n_rows(&self) -> usize {
        self.weights.len()
    }
}

/// Builds a [`LimePlan`] for `x`, appending its `cfg.n_samples` perturbed
/// samples to `block` (row 0 is `x` itself, unperturbed). `base_hint`,
/// when given, must be bit-equal to `background.expected_output(model)`.
/// The model is consulted for `f(x)` on `x` verbatim.
pub fn lime_plan(
    model: &dyn Regressor,
    x: &[f64],
    background: &Background,
    cfg: &LimeConfig,
    base_hint: Option<f64>,
    block: &mut FusedBlock,
) -> Result<LimePlan, XaiError> {
    let d = x.len();
    if d == 0 {
        return Err(XaiError::Input(
            "cannot explain a zero-feature input".into(),
        ));
    }
    if background.n_features() != d {
        return Err(XaiError::Input(format!(
            "shape mismatch: x has {d}, background {}",
            background.n_features()
        )));
    }
    if cfg.n_samples < d + 2 {
        return Err(XaiError::Budget(format!(
            "LIME needs more samples ({}) than features + 2 ({})",
            cfg.n_samples,
            d + 2
        )));
    }
    check_plan_values("lime", cfg.n_samples, d)?;

    // Perturbation + distance scale; a constant feature scales by 1.
    let stds: Vec<f64> = background
        .stds
        .iter()
        .map(|&s| if s > 1e-12 { s } else { 1.0 })
        .collect();

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let kernel_width = cfg.kernel_width_factor * (d as f64).sqrt();
    let n = cfg.n_samples;
    let first_row = block.n_rows();
    let mut weights = Vec::with_capacity(n);
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
        weights.push((-dist2 / (kernel_width * kernel_width)).exp());
        block.push_row(&sample);
    }
    Ok(LimePlan {
        first_row,
        weights,
        centred: x
            .iter()
            .zip(&background.means)
            .map(|(xi, mu)| xi - mu)
            .collect(),
        base: base_hint.unwrap_or_else(|| background.expected_output(model)),
        fx: model.predict(x),
        ridge: cfg.ridge,
    })
}

/// Completes a [`LimePlan`] against its evaluated block: the weighted
/// ridge over the `[1 | sample]` design, its weighted R² on the same
/// sample, and the effects form.
///
/// # Panics
/// If `block` has not been evaluated since the plan was appended.
pub fn lime_finish(
    plan: &LimePlan,
    block: &FusedBlock,
    names: &[String],
) -> Result<LimeExplanation, XaiError> {
    let d = plan.centred.len();
    if names.len() != d {
        return Err(XaiError::Input(format!(
            "shape mismatch: plan has {d} features, names {}",
            names.len()
        )));
    }
    let n = plan.n_rows();
    let end = plan.first_row + n;
    assert!(
        end <= block.preds().len(),
        "fused block not evaluated: plan needs rows {}..{end} but only {} predictions exist",
        plan.first_row,
        block.preds().len()
    );
    let yvec = &block.preds()[plan.first_row..end];
    let wvec = &plan.weights;
    // Design matrix with bias column.
    let mut xmat = Vec::with_capacity(n * (d + 1));
    for sample in block.rows()[plan.first_row * d..end * d].chunks_exact(d) {
        xmat.push(1.0);
        xmat.extend_from_slice(sample);
    }
    let xm = Matrix::from_vec(n, d + 1, xmat).map_err(|e| XaiError::Numeric(e.to_string()))?;
    let beta = weighted_ridge(&xm, yvec, wvec, plan.ridge)
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
    let wmean = yvec.iter().zip(wvec).map(|(y, w)| y * w).sum::<f64>() / wsum;
    let ss_tot: f64 = yvec
        .iter()
        .zip(wvec)
        .map(|(y, w)| w * (y - wmean).powi(2))
        .sum();
    let ss_res: f64 = yvec
        .iter()
        .zip(&preds)
        .zip(wvec)
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
        .zip(&plan.centred)
        .map(|(c, dx)| c * dx)
        .collect();
    let attribution = Attribution {
        names: names.into(),
        values,
        base_value: plan.base,
        prediction: plan.fx,
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
    use nfv_data::stats;
    use nfv_ml::model::FnModel;
    use nfv_ml::prelude::*;
    use std::sync::OnceLock;

    fn names(d: usize) -> Vec<String> {
        (0..d).map(|i| format!("x{i}")).collect()
    }

    /// A sample count past `MAX_PLAN_VALUES / d` is refused before the
    /// weights or the block are allocated.
    #[test]
    fn a_plan_past_the_value_cap_is_refused() {
        let model = FnModel::new(5, |x: &[f64]| x.iter().sum());
        let bg = Background::from_rows(vec![vec![0.0; 5]; 4]).unwrap();
        for n_samples in [1usize << 40, usize::MAX] {
            let cfg = LimeConfig {
                n_samples,
                ..LimeConfig::default()
            };
            let err = lime(&model, &[1.0; 5], &bg, &names(5), &cfg).unwrap_err();
            assert!(matches!(err, XaiError::Budget(_)), "{err:?}");
        }
    }

    /// `lime` as it was before the plan/finish split, verbatim: one scalar
    /// `predict` per perturbation and the stds recomputed per call. The
    /// oracle the pipeline must reproduce bit for bit.
    fn reference_lime(
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

    /// The six outputs of a LIME explanation as raw bits.
    fn lime_bits(e: &LimeExplanation) -> (Vec<u64>, u64, u64, Vec<u64>, u64, u64) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        (
            bits(&e.attribution.values),
            e.attribution.base_value.to_bits(),
            e.attribution.prediction.to_bits(),
            bits(&e.coefficients),
            e.intercept.to_bits(),
            e.local_r2.to_bits(),
        )
    }

    const D: usize = 5;

    struct Models {
        data: Dataset,
        forest: RandomForest,
        packed_forest: SoaForest,
        gbdt: Gbdt,
        packed_gbdt: SoaForest,
        linear: LinearRegression,
        reciprocal: FnModel<fn(&[f64]) -> f64>,
    }

    /// Sign-sensitive: `1/-0.0` and `1/+0.0` differ.
    fn reciprocal_sum(x: &[f64]) -> f64 {
        x.iter().map(|v| 1.0 / v).sum()
    }

    fn models() -> &'static Models {
        static MODELS: OnceLock<Models> = OnceLock::new();
        MODELS.get_or_init(|| {
            let data = friedman1(200, D, 0.1, 19).unwrap().data;
            let forest = RandomForest::fit(
                &data,
                &ForestParams {
                    n_trees: 8,
                    ..Default::default()
                },
                5,
                1,
            )
            .unwrap();
            let gbdt = Gbdt::fit(
                &data,
                &GbdtParams {
                    n_rounds: 10,
                    ..Default::default()
                },
                0,
            )
            .unwrap();
            Models {
                packed_forest: SoaForest::from_forest(&forest).unwrap(),
                packed_gbdt: SoaForest::from_gbdt(&gbdt).unwrap(),
                linear: LinearRegression::fit(&data, 1e-6).unwrap(),
                reciprocal: FnModel::new(D, reciprocal_sum),
                data,
                forest,
                gbdt,
            }
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The pipeline against the pre-split `lime`, on every output's
        /// bits. Tree models run packed on the pipeline side and as source
        /// trees on the reference side, as the serving layer runs them.
        /// Masked features of `x` are `-0.0`; the constant background
        /// column is `0.0`, so it hits the std → 1.0 fallback and its
        /// effect keeps the sign of a `-0.0` feature.
        #[test]
        fn lime_equals_the_reference_bit_for_bit(
            model in 0usize..4,
            row in 0usize..200,
            neg_zero in 0u32..(1 << D),
            constant in 0usize..D + 1,
            budget in 0usize..3,
            seed in 0u64..u64::MAX,
        ) {
            let m = models();
            let (fast, slow): (&dyn Regressor, &dyn Regressor) = match model {
                0 => (&m.packed_forest, &m.forest),
                1 => (&m.packed_gbdt, &m.gbdt),
                2 => (&m.linear, &m.linear),
                _ => (&m.reciprocal, &m.reciprocal),
            };
            let mut x = m.data.row(row).to_vec();
            for (j, v) in x.iter_mut().enumerate() {
                if neg_zero >> j & 1 == 1 {
                    *v = -0.0;
                }
            }
            let rows: Vec<Vec<f64>> = (0..8)
                .map(|i| {
                    let mut r = m.data.row((row + 7 * i + 1) % 200).to_vec();
                    if constant < D {
                        r[constant] = 0.0;
                    }
                    r
                })
                .collect();
            let bg = Background::from_rows(rows).unwrap();
            let cfg = LimeConfig {
                n_samples: [D + 2, 64, 256][budget],
                seed,
                ..LimeConfig::default()
            };
            let got = lime(fast, &x, &bg, &names(D), &cfg).unwrap();
            let want = reference_lime(slow, &x, &bg, &names(D), &cfg).unwrap();
            proptest::prop_assert_eq!(lime_bits(&got), lime_bits(&want));
        }
    }

    #[test]
    fn prediction_is_f_of_x_verbatim_not_row_zero() {
        // Row 0 holds x + 0.0: a -0.0 feature there reads +0.0, and 1/x
        // tells the two apart.
        let bg = Background::from_rows(vec![vec![1.0, 2.0], vec![3.0, 5.0]]).unwrap();
        let model = FnModel::new(2, |x: &[f64]| 1.0 / x[0] + x[1]);
        let mut block = FusedBlock::default();
        let plan = lime_plan(
            &model,
            &[-0.0, 1.0],
            &bg,
            &LimeConfig::default(),
            None,
            &mut block,
        )
        .unwrap();
        assert_eq!(plan.n_rows(), block.n_rows());
        assert_eq!(block.rows()[0].to_bits(), 0.0f64.to_bits());
        block.evaluate(&model);
        assert_eq!(block.preds()[0], f64::INFINITY);
        let e = lime_finish(&plan, &block, &names(2)).unwrap();
        assert_eq!(e.attribution.prediction, f64::NEG_INFINITY);
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
        // Plan-time guards leave no rows behind.
        let mut block = FusedBlock::default();
        let cfg = LimeConfig::default();
        assert!(lime_plan(&model, &[], &bg, &cfg, None, &mut block).is_err());
        assert!(lime_plan(&model, &[1.0], &bg, &cfg, None, &mut block).is_err());
        let tiny = LimeConfig {
            n_samples: 3,
            ..cfg
        };
        assert!(lime_plan(&model, &[1.0, 2.0], &bg, &tiny, None, &mut block).is_err());
        assert!(block.is_empty());
        // A names mismatch is a typed error at finish, never a truncation.
        let plan = lime_plan(&model, &[1.0, 2.0], &bg, &cfg, None, &mut block).unwrap();
        block.evaluate(&model);
        for short_or_long in [names(1), names(3)] {
            assert!(matches!(
                lime_finish(&plan, &block, &short_or_long),
                Err(XaiError::Input(_))
            ));
        }
        assert!(lime(&model, &[1.0, 2.0], &bg, &names(3), &cfg).is_err());
    }

    #[test]
    fn constant_feature_background_does_not_divide_by_zero() {
        let bg = Background::from_rows(vec![vec![1.0, 5.0], vec![2.0, 5.0]]).unwrap();
        let model = FnModel::new(2, |x: &[f64]| x[0] + x[1]);
        let e = lime(&model, &[1.5, 5.0], &bg, &names(2), &LimeConfig::default()).unwrap();
        assert!(e.coefficients.iter().all(|c| c.is_finite()));
    }
}
