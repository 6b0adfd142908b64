//! The Shapley-value family: exact enumeration, permutation sampling,
//! KernelSHAP, and TreeSHAP.

pub mod exact;
pub mod kernel;
pub mod sampling;
pub mod tree;

pub use exact::MAX_EXACT_FEATURES;
pub use exact::{exact_shapley, exact_shapley_finish, exact_shapley_plan, ExactShapPlan};
pub use kernel::{kernel_shap, kernel_shap_plan, KernelShapConfig};
pub use kernel::{kernel_shap_finish, KernelShapPlan};
pub use sampling::{sampling_shapley, sampling_shapley_finish, sampling_shapley_plan};
pub use sampling::{SamplingConfig, SamplingPlan};
pub use tree::{ensemble_shap, forest_shap, gbdt_shap, tree_shap};
pub use tree::{TreeShapConsts, TreeShapScratch};
