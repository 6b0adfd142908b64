//! # nfv-xai — explainable AI for NFV management models
//!
//! The primary contribution of the reproduced paper: a from-scratch
//! explainability toolkit for the machine-learning models that drive NFV
//! management (SLA-violation prediction, latency forecasting, auto-scaling),
//! plus the evaluation machinery to judge explanation quality.
//!
//! ## Explanation methods
//!
//! | Method | Module | Scope | Cost |
//! |---|---|---|---|
//! | Exact Shapley | [`shapley::exact`] | local | `O(2^d · |B|)` model calls |
//! | Sampling Shapley | [`shapley::sampling`] | local | `O(P · d)` model calls |
//! | KernelSHAP | [`shapley::kernel`] | local | `O(K · |B|)` model calls |
//! | TreeSHAP | [`shapley::tree`] | local | `O(T · L · D²)` — no model calls |
//! | LIME | [`lime`] | local | `O(N)` model calls |
//! | Permutation importance | [`permutation`] | global | `O(d · R · n)` model calls |
//! | PDP / ICE | [`pdp`] | global | `O(G · n)` model calls |
//! | Surrogate tree | [`surrogate`] | global | one tree fit |
//! | Counterfactuals | [`counterfactual`] | local | search, `O(restarts · sweeps · d)` calls |
//! | Grouped (Owen) Shapley | [`grouped`] | local | `O(2^G · |B|)` calls, G = #groups |
//! | Shapley interactions | [`interactions`] | local | `O(2^d · |B|)` calls |
//! | SAGE | [`sage`] | global | `O(P · R · d · |B|)` calls |
//!
//! The local attribution methods are additionally unified behind the
//! object-safe [`explainer::Explainer`] trait: every one but TreeSHAP (the
//! sampled and exact Shapley family, interactions, per-instance
//! permutation and LIME) splits into a *plan* half that stacks
//! model-input rows into a shared [`background::FusedBlock`] and a
//! *finish* half that reduces the evaluated block. That pipeline is the
//! only way those methods are computed — alone it runs with a group of
//! one — so a serving layer can batch many requests, across methods, into
//! single model evaluations without changing a bit of any answer. Exact,
//! grouped and interaction Shapley are one explainer,
//! [`shapley::Enumeration`]: one `2^k`-coalition table, reduced two ways.
//!
//! Every function here runs on its caller's thread; the crate has no
//! thread pool. Explaining a whole set in parallel is the serving layer's
//! job: `nfv-serve`'s engine fans requests over its workers and fuses the
//! ones that co-queue (the paper's global figures are computed that way).
//!
//! ## Evaluation
//!
//! [`eval::fidelity`] (deletion/insertion AUC), [`eval::rank`] (cross-method
//! agreement), [`mod@eval::stability`] (local Lipschitz), and [`eval::axioms`]
//! (efficiency / symmetry / dummy / linearity batteries).
//!
//! ## Quick example
//!
//! ```
//! use nfv_data::prelude::*;
//! use nfv_ml::prelude::*;
//! use nfv_xai::prelude::*;
//!
//! // An SLA-violation-style synthetic task with known causal drivers.
//! let synth = clever_hans_nfv(600, 0.0, 7).unwrap();
//! let model = Gbdt::fit(&synth.data, &GbdtParams { n_rounds: 30, ..Default::default() }, 0).unwrap();
//! let x = synth.data.row(0).to_vec();
//! let attr = gbdt_shap(&model, &x, &synth.data.names).unwrap();
//! // Additivity (efficiency) holds exactly for TreeSHAP:
//! assert!(attr.efficiency_gap().abs() < 1e-8);
//! println!("{}", render_report(&attr, PredictionKind::SlaViolationRisk, 3).text);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod background;
pub mod counterfactual;
pub mod eval;
pub mod explainer;
pub mod explanation;
pub mod grouped;
pub mod interactions;
pub mod lime;
pub mod methods;
pub mod pdp;
pub mod permutation;
pub mod report;
pub mod sage;
pub mod shapley;
pub mod surrogate;

use std::fmt;

/// Errors from explanation computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XaiError {
    /// Invalid inputs (shape mismatch, empty data, bad ordering).
    Input(String),
    /// Budget/limit problem (too many features for exact, zero samples).
    Budget(String),
    /// Numerical failure in a solver.
    Numeric(String),
}

impl fmt::Display for XaiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XaiError::Input(m) => write!(f, "input error: {m}"),
            XaiError::Budget(m) => write!(f, "budget error: {m}"),
            XaiError::Numeric(m) => write!(f, "numeric error: {m}"),
        }
    }
}

impl std::error::Error for XaiError {}

/// One-stop imports.
pub mod prelude {
    pub use crate::background::{Background, CoalitionPlan, CoalitionWorkspace, FusedBlock};
    pub use crate::counterfactual::{
        counterfactual, Counterfactual, CounterfactualConfig, CrossingDirection,
    };
    pub use crate::eval::{
        agreement, attribution_mae, check_axioms, deletion_curve, fidelity_summary,
        insertion_curve, mean_agreement, roar, stability, Agreement, AxiomReport, FidelityCurve,
        FidelitySummary, RoarCurve, Stability, StabilityConfig,
    };
    pub use crate::explainer::{
        ExplainContext, ExplainPlan, Explainer, KernelShapExplainer, LimeExplainer,
        PermutationExplainer, SamplingShapleyExplainer,
    };
    pub use crate::explanation::{mean_absolute_attribution, Attribution};
    pub use crate::grouped::{
        grouped_shapley, grouped_shapley_finish, grouped_shapley_plan, FeatureGroups,
        GroupedShapPlan, MAX_GROUPS,
    };
    pub use crate::interactions::{
        interaction_values, InteractionMatrix, MAX_INTERACTION_FEATURES,
    };
    pub use crate::lime::{lime, lime_finish, lime_plan, LimeConfig, LimeExplanation, LimePlan};
    pub use crate::methods::{
        method_id, MethodConfig, MethodDescriptor, MethodRegistry, ModelCaps, TreeModel,
        TreeShapExplainer,
    };
    pub use crate::pdp::{partial_dependence, PartialDependence};
    pub use crate::permutation::{
        instance_permutation, instance_permutation_finish, instance_permutation_plan,
        permutation_importance, PermutationConfig, PermutationImportance, PermutationPlan,
    };
    pub use crate::report::{humanize_feature, render_report, OperatorReport, PredictionKind};
    pub use crate::sage::{sage, SageConfig, SageImportance};
    pub use crate::shapley::{
        ensemble_shap, exact_shapley, exact_shapley_finish, exact_shapley_plan, forest_shap,
        gbdt_shap, kernel_shap, kernel_shap_finish, kernel_shap_plan, sampling_shapley,
        sampling_shapley_finish, sampling_shapley_plan, tree_shap, Enumeration, EnumerationPlan,
        ExactShapPlan, KernelShapConfig, KernelShapPlan, SamplingConfig, SamplingPlan,
        TreeShapConsts, TreeShapScratch, MAX_EXACT_FEATURES,
    };
    pub use crate::surrogate::{global_surrogate, render_rules, Surrogate};
    pub use crate::XaiError;
}
