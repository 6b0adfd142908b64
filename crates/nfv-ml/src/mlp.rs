//! A small fully-connected neural network (the canonical "black box" the
//! XAI literature explains): tanh hidden layers, linear or sigmoid output,
//! mini-batch SGD with momentum.

use crate::linear::sigmoid;
use crate::model::{Classifier, Regressor};
use crate::MlError;
use nfv_data::dataset::{Dataset, Task};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// MLP hyperparameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpParams {
    /// Hidden layer widths, e.g. `[32, 16]`.
    pub hidden: Vec<usize>,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// Momentum coefficient in [0, 1).
    pub momentum: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// L2 weight decay.
    pub weight_decay: f64,
}

impl Default for MlpParams {
    fn default() -> Self {
        Self {
            hidden: vec![32, 16],
            learning_rate: 0.02,
            momentum: 0.9,
            epochs: 120,
            batch_size: 32,
            weight_decay: 1e-5,
        }
    }
}

/// One dense layer's parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Layer {
    /// Row-major `out × in` weights.
    w: Vec<f64>,
    b: Vec<f64>,
    n_in: usize,
    n_out: usize,
}

impl Layer {
    fn forward(&self, x: &[f64], out: &mut Vec<f64>) {
        out.clear();
        for o in 0..self.n_out {
            let row = &self.w[o * self.n_in..(o + 1) * self.n_in];
            let z: f64 = row.iter().zip(x).map(|(a, b)| a * b).sum::<f64>() + self.b[o];
            out.push(z);
        }
    }
}

/// A fitted multi-layer perceptron.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Layer>,
    /// Task trained on (decides the output nonlinearity and loss).
    pub task: Task,
    n_features: usize,
    /// Final training loss (for convergence checks).
    pub final_loss: f64,
}

impl Mlp {
    /// Trains with mini-batch SGD + momentum on MSE (regression) or
    /// cross-entropy (classification). Inputs should be roughly
    /// standardized by the caller (see `nfv_data::scaler`).
    pub fn fit(data: &Dataset, params: &MlpParams, seed: u64) -> Result<Mlp, MlError> {
        if params.epochs == 0 || params.batch_size == 0 {
            return Err(MlError::Shape(
                "epochs and batch_size must be positive".into(),
            ));
        }
        if params.hidden.contains(&0) {
            return Err(MlError::Shape("hidden layer of width 0".into()));
        }
        let d = data.n_features();
        let mut rng = StdRng::seed_from_u64(seed);
        // Layer sizes: d → hidden… → 1.
        let mut sizes = vec![d];
        sizes.extend_from_slice(&params.hidden);
        sizes.push(1);
        let mut layers: Vec<Layer> = Vec::with_capacity(sizes.len() - 1);
        for win in sizes.windows(2) {
            let (n_in, n_out) = (win[0], win[1]);
            // Xavier/Glorot uniform init.
            let lim = (6.0 / (n_in + n_out) as f64).sqrt();
            let w = (0..n_in * n_out)
                .map(|_| rng.gen_range(-lim..lim))
                .collect();
            layers.push(Layer {
                w,
                b: vec![0.0; n_out],
                n_in,
                n_out,
            });
        }
        let mut vel: Vec<(Vec<f64>, Vec<f64>)> = layers
            .iter()
            .map(|l| (vec![0.0; l.w.len()], vec![0.0; l.b.len()]))
            .collect();

        let n = data.n_rows();
        let mut order: Vec<usize> = (0..n).collect();
        let mut final_loss = f64::INFINITY;
        // Scratch buffers reused across samples.
        let l_count = layers.len();
        for _epoch in 0..params.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            for batch in order.chunks(params.batch_size) {
                // Accumulated gradients.
                let mut gw: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
                let mut gb: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
                for &i in batch {
                    let x = data.row(i);
                    // Forward, caching activations (post-nonlinearity).
                    let mut acts: Vec<Vec<f64>> = Vec::with_capacity(l_count + 1);
                    acts.push(x.to_vec());
                    let mut z = Vec::new();
                    for (li, layer) in layers.iter().enumerate() {
                        layer.forward(acts.last().expect("pushed"), &mut z);
                        let a = if li + 1 < l_count {
                            z.iter().map(|v| v.tanh()).collect()
                        } else {
                            z.clone() // output layer stays linear here
                        };
                        acts.push(a);
                    }
                    let out = acts.last().expect("output")[0];
                    // Output delta: both losses reduce to (pred − y) with the
                    // canonical link (identity for MSE, sigmoid for CE).
                    let (pred, delta_out) = match data.task {
                        Task::Regression => (out, out - data.y[i]),
                        Task::BinaryClassification => {
                            let p = sigmoid(out);
                            (p, p - data.y[i])
                        }
                    };
                    epoch_loss += match data.task {
                        Task::Regression => 0.5 * (pred - data.y[i]).powi(2),
                        Task::BinaryClassification => {
                            let p = pred.clamp(1e-12, 1.0 - 1e-12);
                            -(data.y[i] * p.ln() + (1.0 - data.y[i]) * (1.0 - p).ln())
                        }
                    };
                    // Backward.
                    let mut delta = vec![delta_out];
                    for li in (0..l_count).rev() {
                        let layer = &layers[li];
                        let a_in = &acts[li];
                        for (o, &dl) in delta.iter().enumerate() {
                            gb[li][o] += dl;
                            let row = &mut gw[li][o * layer.n_in..(o + 1) * layer.n_in];
                            for (g, ai) in row.iter_mut().zip(a_in) {
                                *g += dl * ai;
                            }
                        }
                        if li > 0 {
                            // δ_prev = (Wᵀ δ) ⊙ (1 − a²) for tanh.
                            let mut prev = vec![0.0; layer.n_in];
                            for (o, &dl) in delta.iter().enumerate() {
                                let row = &layer.w[o * layer.n_in..(o + 1) * layer.n_in];
                                for (p, wv) in prev.iter_mut().zip(row) {
                                    *p += wv * dl;
                                }
                            }
                            for (p, a) in prev.iter_mut().zip(&acts[li]) {
                                *p *= 1.0 - a * a;
                            }
                            delta = prev;
                        }
                    }
                }
                // SGD + momentum step.
                let scale = params.learning_rate / batch.len() as f64;
                for li in 0..l_count {
                    let (vw, vb) = &mut vel[li];
                    for (j, g) in gw[li].iter().enumerate() {
                        vw[j] = params.momentum * vw[j]
                            - scale * (g + params.weight_decay * layers[li].w[j]);
                        layers[li].w[j] += vw[j];
                    }
                    for (j, g) in gb[li].iter().enumerate() {
                        vb[j] = params.momentum * vb[j] - scale * g;
                        layers[li].b[j] += vb[j];
                    }
                }
            }
            final_loss = epoch_loss / n as f64;
        }
        Ok(Mlp {
            layers,
            task: data.task,
            n_features: d,
            final_loss,
        })
    }

    /// Raw pre-link output.
    pub fn raw(&self, x: &[f64]) -> f64 {
        let mut a = x.to_vec();
        let mut z = Vec::new();
        let last = self.layers.len() - 1;
        for (li, layer) in self.layers.iter().enumerate() {
            layer.forward(&a, &mut z);
            if li < last {
                a = z.iter().map(|v| v.tanh()).collect();
            } else {
                a = z.clone();
            }
        }
        a[0]
    }
}

impl Mlp {
    /// `raw` with caller-provided activation buffers (no per-row
    /// allocations); arithmetic is identical to [`Mlp::raw`].
    fn raw_buffered(&self, x: &[f64], a: &mut Vec<f64>, z: &mut Vec<f64>) -> f64 {
        a.clear();
        a.extend_from_slice(x);
        let last = self.layers.len() - 1;
        for (li, layer) in self.layers.iter().enumerate() {
            layer.forward(a, z);
            a.clear();
            if li < last {
                a.extend(z.iter().map(|v| v.tanh()));
            } else {
                a.extend_from_slice(z);
            }
        }
        a[0]
    }
}

impl Regressor for Mlp {
    fn predict(&self, x: &[f64]) -> f64 {
        match self.task {
            Task::Regression => self.raw(x),
            Task::BinaryClassification => sigmoid(self.raw(x)),
        }
    }
    /// Forward passes sharing two activation buffers across the whole
    /// block (`predict` allocates per layer per row).
    fn predict_block(&self, flat: &[f64], d: usize, out: &mut [f64]) {
        assert_eq!(
            flat.len(),
            out.len() * d,
            "flat block must hold out.len() rows of d values"
        );
        let mut a = Vec::new();
        let mut z = Vec::new();
        for (row, o) in flat.chunks_exact(d).zip(out.iter_mut()) {
            let raw = self.raw_buffered(row, &mut a, &mut z);
            *o = match self.task {
                Task::Regression => raw,
                Task::BinaryClassification => sigmoid(raw),
            };
        }
    }
    fn n_features(&self) -> usize {
        self.n_features
    }
}

impl Classifier for Mlp {
    fn predict_proba(&self, x: &[f64]) -> f64 {
        sigmoid(self.raw(x))
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
    fn mlp_fits_a_linear_function() {
        let s = linear_gaussian(800, 3, 0, 0.05, 31).unwrap();
        let m = Mlp::fit(
            &s.data,
            &MlpParams {
                hidden: vec![16],
                epochs: 150,
                ..MlpParams::default()
            },
            0,
        )
        .unwrap();
        let preds: Vec<f64> = s.data.rows().map(|r| m.predict(r)).collect();
        let r2 = metrics::r2(&s.data.y, &preds).unwrap();
        assert!(r2 > 0.95, "r2={r2}");
    }

    #[test]
    fn mlp_solves_xor_unlike_logistic() {
        let s = interaction_xor(1_200, 0, 32).unwrap();
        let m = Mlp::fit(
            &s.data,
            &MlpParams {
                hidden: vec![16, 8],
                epochs: 200,
                learning_rate: 0.05,
                ..MlpParams::default()
            },
            1,
        )
        .unwrap();
        let proba: Vec<f64> = s.data.rows().map(|r| m.predict_proba(r)).collect();
        let acc = metrics::accuracy(&s.data.y, &proba).unwrap();
        assert!(acc > 0.9, "acc={acc}");
        // Logistic regression is stuck at chance on XOR.
        let lr = crate::linear::LogisticRegression::fit(&s.data, 1e-3, 30).unwrap();
        let lr_proba: Vec<f64> = s
            .data
            .rows()
            .map(|r| crate::model::Classifier::predict_proba(&lr, r))
            .collect();
        let lr_acc = metrics::accuracy(&s.data.y, &lr_proba).unwrap();
        assert!(
            lr_acc < 0.65,
            "logistic should stay near chance on XOR: {lr_acc}"
        );
    }

    #[test]
    fn training_is_seed_deterministic() {
        let s = linear_gaussian(300, 2, 1, 0.1, 33).unwrap();
        let p = MlpParams {
            hidden: vec![8],
            epochs: 30,
            ..MlpParams::default()
        };
        let a = Mlp::fit(&s.data, &p, 5).unwrap();
        let b = Mlp::fit(&s.data, &p, 5).unwrap();
        assert_eq!(a, b);
        assert!(a.final_loss.is_finite());
    }

    #[test]
    fn invalid_params_rejected() {
        let s = linear_gaussian(50, 2, 0, 0.1, 34).unwrap();
        let mut p = MlpParams {
            epochs: 0,
            ..MlpParams::default()
        };
        assert!(Mlp::fit(&s.data, &p, 0).is_err());
        p.epochs = 5;
        p.batch_size = 0;
        assert!(Mlp::fit(&s.data, &p, 0).is_err());
        p.batch_size = 16;
        p.hidden = vec![4, 0];
        assert!(Mlp::fit(&s.data, &p, 0).is_err());
    }
}
