//! # nfv-ml — from-scratch ML models for NFV management
//!
//! The models that `nfv-xai` explains, and the baselines the reconstructed
//! evaluation compares against. Everything is implemented from first
//! principles (the Rust ML/XAI ecosystem being the gap the paper's
//! reproduction has to fill):
//!
//! - [`linear`] — ridge regression (the intrinsically-interpretable
//!   baseline) and Newton-fitted logistic regression;
//! - [`tree`] — CART decision trees with public node arenas and per-node
//!   covers (the structure TreeSHAP consumes);
//! - [`forest`] — bagged random forests, deterministic across thread counts;
//! - [`gbdt`] — gradient-boosted trees (squared and logistic loss);
//! - [`mlp`] — a small tanh MLP, the canonical opaque model;
//! - [`metrics`], [`cv`] — evaluation and k-fold cross-validation;
//! - [`linalg`] — dense matrices, Cholesky, and the weighted-ridge solver
//!   that LIME and KernelSHAP reuse;
//! - [`model`] — the [`model::Regressor`] / [`model::Classifier`] traits
//!   every explainer targets;
//! - [`soa`] — the flattened structure-of-arrays ensemble engine
//!   ([`soa::SoaForest`]) and its blocked traversal kernel.

// `deny`, not `forbid`: the `soa` module opts back in (with a module-level
// justification) for its kernel's unchecked loads. Everything else stays
// unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cv;
pub mod forest;
pub mod gbdt;
pub mod linalg;
pub mod linear;
pub mod metrics;
pub mod mlp;
pub mod model;
pub mod soa;
pub mod tree;

use std::fmt;

/// Errors from model fitting and linear algebra.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MlError {
    /// Dimension/shape mismatch or invalid hyperparameter.
    Shape(String),
    /// Numerical failure (non-SPD matrix, thread panic, divergence).
    Numeric(String),
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::Shape(m) => write!(f, "shape error: {m}"),
            MlError::Numeric(m) => write!(f, "numeric error: {m}"),
        }
    }
}

impl std::error::Error for MlError {}

/// One-stop imports.
pub mod prelude {
    pub use crate::cv::{cross_validate, CvResult};
    pub use crate::forest::{ForestParams, RandomForest};
    pub use crate::gbdt::{Gbdt, GbdtParams};
    pub use crate::linear::{sigmoid, LinearRegression, LogisticRegression};
    pub use crate::metrics;
    pub use crate::mlp::{Mlp, MlpParams};
    pub use crate::model::{Classifier, FnModel, ProbaSurface, Regressor};
    pub use crate::soa::{active_kernel_name, EnsemblePost, SoaForest, PACK_MIN_ROWS};
    pub use crate::tree::{DecisionTree, TreeNode, TreeParams};
    pub use crate::MlError;
}
