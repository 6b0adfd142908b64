//! The model registry: every servable model lives here behind an `Arc`,
//! tagged with a monotonically increasing version.
//!
//! Versions are global across the registry (not per-id) so a cache key
//! containing a version can never collide between "model A v2" and a
//! re-registered "model A" — every registration gets a fresh number.
//!
//! Method dispatch is *open*: `supports`/`explainer` resolve the
//! request's interned method id against the process-wide
//! `nfv_xai::prelude::MethodRegistry` — there is deliberately no `match`
//! on method variants anywhere in this module (ci.sh greps for one), so
//! serving a new explanation method is a registration, not a source edit.

use crate::error::{RejectReason, ServeError};
use crate::request::{ExplainMethod, DEFAULT_ANYTIME_DIVISOR};
use nfv_ml::prelude::*;
use nfv_xai::prelude::*;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A servable model: the closed set of architectures the NFV-management
/// stack deploys (SLA forecasting, latency regression, baselines).
///
/// Serializable so the `nfv-net` wire layer can ship a registration to
/// remote shard processes; all weights are finite, so the JSON round-trip
/// is bit-exact (Rust's shortest-float formatting guarantees it).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub enum ServeModel {
    /// Gradient-boosted trees. TreeSHAP explains the margin; a
    /// model-agnostic method sees `predict`, for a classifier the sigmoid
    /// of the margin.
    Gbdt(Gbdt),
    /// Bagged random forest.
    Forest(RandomForest),
    /// Ridge regression — the intrinsically interpretable baseline.
    Linear(LinearRegression),
    /// The opaque MLP baseline.
    Mlp(Mlp),
}

impl ServeModel {
    /// Feature count the model was trained on.
    pub fn n_features(&self) -> usize {
        self.as_regressor().n_features()
    }

    /// The model as the trait object every model-agnostic explainer takes.
    pub fn as_regressor(&self) -> &dyn Regressor {
        match self {
            ServeModel::Gbdt(m) => m,
            ServeModel::Forest(m) => m,
            ServeModel::Linear(m) => m,
            ServeModel::Mlp(m) => m,
        }
    }

    /// Whether the structure-aware TreeSHAP path applies.
    pub fn supports_tree_shap(&self) -> bool {
        matches!(self, ServeModel::Gbdt(_) | ServeModel::Forest(_))
    }

    /// Short architecture tag for stats and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeModel::Gbdt(_) => "gbdt",
            ServeModel::Forest(_) => "forest",
            ServeModel::Linear(_) => "linear",
            ServeModel::Mlp(_) => "mlp",
        }
    }
}

/// One registered model with everything its explainers need.
#[derive(Debug)]
pub struct ModelEntry {
    /// The model itself.
    pub model: ServeModel,
    /// Registry-global version assigned at registration.
    pub version: u64,
    /// Feature names, aligned with model inputs. Shared (one allocation,
    /// by reference count) with every feature-valued answer explained
    /// against this entry.
    pub feature_names: Arc<[String]>,
    /// Background distribution for the sampling explainers.
    pub background: Background,
    /// Flattened SoA evaluation engine, built once at registration for
    /// tree ensembles (`None` otherwise). Its predictions are bit-identical
    /// to the source model's, so cached attributions and seeded results
    /// are unaffected by which path served them — only the latency is.
    pub packed: Option<SoaForest>,
    /// `E[f(X)]` over the background against [`ModelEntry::explain_regressor`],
    /// computed once at registration. KernelSHAP needs this base value per
    /// request; caching it here removes a full background sweep from every
    /// uncached request without changing any result bit (the per-request
    /// computation is the same deterministic reduction).
    pub expected_output: f64,
    /// Feature grouping for the grouped (Owen) Shapley method, derived
    /// from the feature names at registration: the standard per-stage NFV
    /// grouping when the names follow the telemetry schema, else a single
    /// group holding every feature. Shared, not copied, with every
    /// explainer resolved against this entry.
    pub groups: Arc<FeatureGroups>,
    /// The tree structure behind an `Arc`, for structure-walking methods
    /// (TreeSHAP), with the constants its kernel needs per model — the
    /// ensemble's cover-weighted base value, per-tree scale, and depth.
    /// `None` for non-tree models. Built once at registration so
    /// per-request method resolution clones an `Arc`, not an ensemble or
    /// its constants, and no request re-walks the trees for their expected
    /// values.
    pub trees: Option<Arc<TreeModel>>,
}

impl ModelEntry {
    /// The regressor model-agnostic explainers (KernelSHAP, LIME) should
    /// evaluate: the packed SoA engine when one exists — its blocked
    /// traversal is ~2× faster on the coalition matrices those explainers
    /// feed it — otherwise the model itself.
    pub fn explain_regressor(&self) -> &dyn Regressor {
        match &self.packed {
            Some(p) => p,
            None => self.model.as_regressor(),
        }
    }

    /// Points `attr.names` at this entry's copy when they are the model's
    /// feature names (group- and pair-valued methods name their own
    /// units). Explainers label each answer with a fresh copy of the names
    /// they were handed — d + 1 allocations, ~0.8 KiB at d = 14, most of
    /// an exact-tier cache entry; after this the cache and every response
    /// hold one copy per model.
    pub(crate) fn share_names(&self, mut attr: Attribution) -> Attribution {
        if attr.names == self.feature_names {
            attr.names = Arc::clone(&self.feature_names);
        }
        attr
    }

    /// This model's capabilities, for per-method registry validation.
    pub fn caps(&self) -> ModelCaps {
        ModelCaps {
            n_features: self.model.n_features(),
            n_groups: self.groups.len(),
            is_tree: self.model.supports_tree_shap(),
            kind: self.model.kind(),
        }
    }

    /// The [`MethodConfig`] handed to a method factory for one resolution
    /// against this model. Every field a built-in or plug-in factory may
    /// want is populated, by reference count; factories read what they
    /// need.
    fn method_config(&self, method: ExplainMethod) -> MethodConfig {
        MethodConfig {
            budget: method.budget_word(),
            n_features: self.model.n_features(),
            groups: Some(Arc::clone(&self.groups)),
            trees: self.trees.clone(),
        }
    }

    /// Looks the method up in the process-wide registry, or produces the
    /// typed reject for a name nothing answers to.
    fn descriptor(&self, method: ExplainMethod) -> Result<MethodDescriptor, ServeError> {
        MethodRegistry::global()
            .get(method.method_id())
            .ok_or_else(|| {
                ServeError::Rejected(RejectReason::UnknownMethod {
                    method: method.display_name(),
                })
            })
    }

    /// Checks a request's method against this model's capabilities, by
    /// registry lookup: an unregistered method id is a typed
    /// [`RejectReason::UnknownMethod`]; a registered method whose
    /// validator refuses this model's [`ModelCaps`] is an
    /// [`RejectReason::InvalidRequest`] carrying the validator's reason.
    pub fn supports(&self, method: ExplainMethod) -> Result<(), ServeError> {
        self.descriptor(method)?
            .validate(&self.caps())
            .map_err(|reason| ServeError::Rejected(RejectReason::InvalidRequest { reason }))
    }

    /// Resolves a request method to its [`Explainer`] through the open
    /// registry — a factory call on the method's descriptor, no variant
    /// dispatch. Everything downstream (batching, fusion, finishing) is
    /// generic trait dispatch.
    pub fn explainer(&self, method: ExplainMethod) -> Result<Box<dyn Explainer>, ServeError> {
        self.descriptor(method)?
            .instantiate(&self.method_config(method))
            .map_err(ServeError::Explain)
    }
}

/// Thread-safe id → model map. Reads (the per-request hot path) take a
/// shared lock; registrations are rare and take the exclusive lock.
///
/// Besides models, the registry holds the per-(model, method) serving
/// configuration the open method registry made data-driven: today the
/// anytime coarsening divisor, keyed by interned method id.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    models: RwLock<HashMap<String, Arc<ModelEntry>>>,
    next_version: AtomicU64,
    /// model id → (interned method id → anytime divisor). Absent entries
    /// fall back to [`DEFAULT_ANYTIME_DIVISOR`].
    anytime_divisors: RwLock<HashMap<String, HashMap<u64, u64>>>,
}

impl ModelRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) `id`, returning the assigned version.
    ///
    /// Validates that names and background agree with the model's feature
    /// count up front, so workers never see an inconsistent entry.
    pub fn register(
        &self,
        id: &str,
        model: ServeModel,
        feature_names: Vec<String>,
        background: Background,
    ) -> Result<u64, ServeError> {
        let d = model.n_features();
        if d == 0 {
            return Err(ServeError::Rejected(RejectReason::InvalidRequest {
                reason: format!("model `{id}` has no features"),
            }));
        }
        if feature_names.len() != d || background.n_features() != d {
            return Err(ServeError::Rejected(RejectReason::InvalidRequest {
                reason: format!(
                    "model `{id}` has {d} features but names={} background={}",
                    feature_names.len(),
                    background.n_features()
                ),
            }));
        }
        // A model can arrive deserialised off the wire: refuse a tree whose
        // node graph would send any walk (packing, prediction, TreeSHAP)
        // into a cycle or out of its arena, before anything walks it.
        let trees: &[DecisionTree] = match &model {
            ServeModel::Gbdt(m) => &m.trees,
            ServeModel::Forest(m) => &m.trees,
            ServeModel::Linear(_) | ServeModel::Mlp(_) => &[],
        };
        let bad_tree = trees.iter().enumerate().find_map(|(t, tree)| {
            if tree.n_features != d {
                return Some(format!("tree {t} has {} features", tree.n_features));
            }
            tree.check_structure()
                .err()
                .map(|e| format!("tree {t}: {e}"))
        });
        if let Some(why) = bad_tree {
            return Err(ServeError::Rejected(RejectReason::InvalidRequest {
                reason: format!("model `{id}` (d = {d}): {why}"),
            }));
        }
        // Tree ensembles additionally go behind an `Arc` for the
        // structure-walking methods, so per-request method resolution
        // clones a pointer. The clone here copies the tree headers only —
        // node arenas are shared (`DecisionTree::nodes`). The constructors
        // also derive the TreeSHAP constants (one pass over every tree),
        // which say whether TreeSHAP's recursion can walk the ensemble: one
        // it cannot is refused here, not at its first tree-shap request.
        let trees = match &model {
            ServeModel::Gbdt(m) => Some(Arc::new(TreeModel::gbdt(Arc::new(m.clone())))),
            ServeModel::Forest(m) => Some(Arc::new(TreeModel::forest(Arc::new(m.clone())))),
            ServeModel::Linear(_) | ServeModel::Mlp(_) => None,
        };
        if let Some(Err(e)) = trees.as_ref().map(|t| t.consts().check()) {
            return Err(ServeError::Rejected(RejectReason::InvalidRequest {
                reason: format!("model `{id}`: {e}"),
            }));
        }
        let version = self.next_version.fetch_add(1, Ordering::Relaxed) + 1;
        // Pack tree ensembles into the SoA engine once, here, so no
        // request ever pays the flattening cost. Best-effort: the packer
        // enforces stricter structural invariants than the trainers, and
        // a model it rejects simply serves through the raw model's own
        // `predict_block` (its per-row reference walk, since packing it
        // again fails too), which is bit-identical (just slower).
        let packed = match &model {
            ServeModel::Gbdt(m) => SoaForest::from_gbdt(m).ok(),
            ServeModel::Forest(m) => SoaForest::from_forest(m).ok(),
            ServeModel::Linear(_) | ServeModel::Mlp(_) => None,
        };
        let expected_output = match &packed {
            Some(p) => background.expected_output(p),
            None => background.expected_output(model.as_regressor()),
        };
        // Per-stage grouping when the names follow the NFV telemetry
        // schema; otherwise every feature lands in group 0 ("traffic" from
        // `per_stage`, or the explicit single-group fallback). `d >= 1` is
        // guaranteed above, so the fallback cannot fail.
        let groups = FeatureGroups::per_stage(&feature_names).unwrap_or_else(|_| {
            FeatureGroups::new(vec!["all".into()], vec![0; d])
                .expect("single-group fallback is valid for d >= 1")
        });
        let entry = Arc::new(ModelEntry {
            model,
            version,
            feature_names: feature_names.into(),
            background,
            packed,
            expected_output,
            groups: Arc::new(groups),
            trees,
        });
        self.models.write().insert(id.to_string(), entry);
        Ok(version)
    }

    /// Runs `f` on `id`'s current entry under the registry's read lock:
    /// a lookup that takes no reference count. `f` must not register or
    /// deregister a model: that write would wait on this read forever.
    pub(crate) fn with_entry<R>(
        &self,
        id: &str,
        f: impl FnOnce(&Arc<ModelEntry>) -> R,
    ) -> Option<R> {
        self.models.read().get(id).map(f)
    }

    /// Resolves `id` to its current entry.
    pub fn get(&self, id: &str) -> Option<Arc<ModelEntry>> {
        self.models.read().get(id).cloned()
    }

    /// Removes `id`; returns whether it was present. Its per-method
    /// serving configuration goes with it.
    pub fn deregister(&self, id: &str) -> bool {
        self.anytime_divisors.write().remove(id);
        self.models.write().remove(id).is_some()
    }

    /// Sets the anytime coarsening divisor for one (model, method)
    /// service class: under queue pressure that class's sampling budget
    /// is cut by `divisor` (clamped to ≥ 1; 1 disables degradation for
    /// the class, since the floored result never drops below the
    /// original). `method` is the method *name* — the same string
    /// registered in the method registry — interning happens here.
    pub fn set_anytime_divisor(&self, model_id: &str, method: &str, divisor: u64) {
        self.anytime_divisors
            .write()
            .entry(model_id.to_string())
            .or_default()
            .insert(method_id(method), divisor.max(1));
    }

    /// The anytime divisor for one (model, interned method id) class;
    /// [`DEFAULT_ANYTIME_DIVISOR`] when unconfigured.
    pub fn anytime_divisor(&self, model_id: &str, method_id: u64) -> u64 {
        self.anytime_divisors
            .read()
            .get(model_id)
            .and_then(|per_method| per_method.get(&method_id))
            .copied()
            .unwrap_or(DEFAULT_ANYTIME_DIVISOR)
    }

    /// Registered ids, sorted (stable output for stats/debugging).
    pub fn ids(&self) -> Vec<String> {
        let mut v: Vec<String> = self.models.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.read().len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.models.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_entry() -> (ServeModel, Vec<String>, Background) {
        // A 2-feature ridge fit on 4 points.
        let data = nfv_data::dataset::Dataset::new(
            vec!["a".into(), "b".into()],
            vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0],
            vec![0.0, 1.0, 2.0, 3.0],
            nfv_data::dataset::Task::Regression,
        )
        .unwrap();
        let model = LinearRegression::fit(&data, 1e-6).unwrap();
        let bg = Background::from_rows(vec![vec![0.0, 0.0], vec![1.0, 1.0]]).unwrap();
        (ServeModel::Linear(model), data.names.clone(), bg)
    }

    #[test]
    fn versions_increase_across_re_registration() {
        let reg = ModelRegistry::new();
        let (m, names, bg) = linear_entry();
        let v1 = reg
            .register("sla", m.clone(), names.clone(), bg.clone())
            .unwrap();
        let v2 = reg.register("sla", m, names, bg).unwrap();
        assert!(v2 > v1);
        assert_eq!(reg.get("sla").unwrap().version, v2);
        assert_eq!(reg.ids(), vec!["sla".to_string()]);
        assert!(reg.deregister("sla"));
        assert!(reg.get("sla").is_none());
        assert!(reg.is_empty());
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let reg = ModelRegistry::new();
        let (m, _, bg) = linear_entry();
        let err = reg
            .register("sla", m, vec!["only-one".into()], bg)
            .unwrap_err();
        assert!(err.is_reject());
    }

    #[test]
    fn cyclic_tree_model_is_rejected_before_anything_walks_it() {
        // What a hostile `Register` deserialises into: a root naming itself
        // as both children, which packing used to recurse on without end.
        let hostile: ServeModel = serde_json::from_str(
            r#"{"Forest":{"trees":[{"nodes":[{"feature":0,"threshold":0.0,"left":0,"right":0,
            "value":0.0,"cover":1.0,"is_leaf":false}],"n_features":2,"task":"Regression"}],
            "n_features":2,"task":"Regression"}}"#,
        )
        .unwrap();
        let reg = ModelRegistry::new();
        let (_, names, bg) = linear_entry();
        let err = reg.register("hostile", hostile, names, bg).unwrap_err();
        assert!(
            matches!(
                err,
                ServeError::Rejected(RejectReason::InvalidRequest { .. })
            ),
            "unexpected error: {err:?}"
        );
        assert!(reg.get("hostile").is_none());
    }

    /// A one-tree forest over two features: `levels` splits down the left,
    /// every right child a leaf — valid for `check_structure` at any depth.
    fn chain_forest(levels: u32) -> ServeModel {
        let node = |left, right, cover: u32, is_leaf| TreeNode {
            feature: 0,
            threshold: 0.0,
            left,
            right,
            value: 1.0,
            cover: cover as f64,
            is_leaf,
        };
        let mut nodes = Vec::new();
        for k in 0..levels {
            nodes.push(node(2 * k + 2, 2 * k + 1, levels - k + 1, false));
            nodes.push(node(0, 0, 1, true));
        }
        nodes.push(node(0, 0, 1, true));
        let (n_features, task) = (2, nfv_data::dataset::Task::Regression);
        let tree = DecisionTree {
            nodes: nodes.into(),
            n_features,
            task,
        };
        ServeModel::Forest(RandomForest {
            trees: vec![tree],
            n_features,
            task,
        })
    }

    #[test]
    fn trees_tree_shap_cannot_walk_are_refused_at_registration() {
        let reg = ModelRegistry::new();
        let (_, names, bg) = linear_entry();
        reg.register("deep", chain_forest(200), names.clone(), bg.clone())
            .unwrap();
        // What a few MB of `Register` frame can carry. On a worker-sized
        // stack: 60 000 levels overflowed it inside `DecisionTree::depth`,
        // 30 000 asked the first tree-shap request for 28.8 GB.
        for levels in [2_000, 30_000, 60_000] {
            let worker = std::thread::Builder::new().stack_size(2 << 20);
            let err = std::thread::scope(|s| {
                let register =
                    || reg.register("deeper", chain_forest(levels), names.clone(), bg.clone());
                worker.spawn_scoped(s, register).unwrap().join().unwrap()
            })
            .unwrap_err();
            assert!(
                matches!(
                    err,
                    ServeError::Rejected(RejectReason::InvalidRequest { ref reason })
                        if reason.contains("levels")
                ),
                "{levels} levels: {err:?}"
            );
            assert!(reg.get("deeper").is_none());
        }
    }

    #[test]
    fn tree_models_are_packed_bit_identically_and_linear_is_not() {
        let reg = ModelRegistry::new();
        let (m, names, bg) = linear_entry();
        reg.register("lin", m, names, bg).unwrap();
        let lin = reg.get("lin").unwrap();
        assert!(lin.packed.is_none(), "no SoA engine for linear models");

        let data = nfv_data::dataset::Dataset::new(
            vec!["a".into(), "b".into()],
            vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.5, 0.25],
            vec![0.0, 1.0, 2.0, 3.0, 1.5],
            nfv_data::dataset::Task::Regression,
        )
        .unwrap();
        let gbdt = Gbdt::fit(
            &data,
            &GbdtParams {
                n_rounds: 8,
                ..Default::default()
            },
            0,
        )
        .unwrap();
        let bg = Background::from_rows(vec![vec![0.0, 0.0], vec![1.0, 1.0]]).unwrap();
        reg.register("g", ServeModel::Gbdt(gbdt), data.names.clone(), bg)
            .unwrap();
        let entry = reg.get("g").unwrap();
        assert!(entry.packed.is_some(), "tree models get a packed engine");
        for i in 0..data.n_rows() {
            let row = data.row(i);
            assert_eq!(
                entry.explain_regressor().predict(row).to_bits(),
                entry.model.as_regressor().predict(row).to_bits(),
                "packed engine must be bit-identical to the source model"
            );
        }
    }

    #[test]
    fn expected_output_is_cached_bit_identically() {
        let reg = ModelRegistry::new();
        let (m, names, bg) = linear_entry();
        reg.register("lin", m, names, bg.clone()).unwrap();
        let entry = reg.get("lin").unwrap();
        assert_eq!(
            entry.expected_output.to_bits(),
            bg.expected_output(entry.explain_regressor()).to_bits(),
            "cached base value must match a per-request recompute exactly"
        );
    }

    #[test]
    fn tree_shap_gated_to_tree_models() {
        let reg = ModelRegistry::new();
        let (m, names, bg) = linear_entry();
        reg.register("lin", m, names, bg).unwrap();
        let entry = reg.get("lin").unwrap();
        assert!(entry.supports(ExplainMethod::TreeShap).is_err());
        assert!(entry
            .supports(ExplainMethod::KernelShap { n_coalitions: 64 })
            .is_ok());
        // All widened variants pass on a 2-feature model.
        for m in [
            ExplainMethod::SamplingShapley {
                n_permutations: 8,
                antithetic: true,
            },
            ExplainMethod::ExactShapley,
            ExplainMethod::GroupedShapley,
            ExplainMethod::Permutation,
        ] {
            assert!(entry.supports(m).is_ok(), "{m:?}");
        }
    }

    #[test]
    fn registration_derives_a_valid_grouping() {
        let reg = ModelRegistry::new();
        let (m, _, bg) = linear_entry();
        // Non-schema names collapse into one group.
        reg.register("lin", m, vec!["a".into(), "b".into()], bg)
            .unwrap();
        let entry = reg.get("lin").unwrap();
        assert_eq!(entry.groups.assignment, vec![0, 0]);
        assert!(entry.supports(ExplainMethod::GroupedShapley).is_ok());
    }

    #[test]
    fn every_method_resolves_to_an_explainer_with_its_tag() {
        let reg = ModelRegistry::new();
        let (m, names, bg) = linear_entry();
        reg.register("lin", m, names, bg).unwrap();
        let entry = reg.get("lin").unwrap();
        for (method, tag, fusable) in [
            (
                ExplainMethod::KernelShap { n_coalitions: 16 },
                "kernel-shap",
                true,
            ),
            (ExplainMethod::Lime { n_samples: 64 }, "lime", true),
            (
                ExplainMethod::SamplingShapley {
                    n_permutations: 4,
                    antithetic: false,
                },
                "sampling-shapley",
                true,
            ),
            (ExplainMethod::ExactShapley, "exact-shapley", true),
            (ExplainMethod::GroupedShapley, "grouped-shapley", true),
            (ExplainMethod::Permutation, "permutation", true),
            (ExplainMethod::Interactions, "interactions", true),
        ] {
            let e = entry.explainer(method).unwrap();
            assert_eq!(e.tag(), tag);
            assert_eq!(e.fusable(), fusable, "{tag}");
            assert_eq!(e.tag(), method.tag(), "registry and request tags agree");
        }
        // Tree-shap has no tree structure to walk on a linear model; the
        // factory refuses (the validator already rejects at admission).
        assert!(entry.explainer(ExplainMethod::TreeShap).is_err());
    }

    #[test]
    fn tree_entries_resolve_tree_shap_through_the_registry() {
        let reg = ModelRegistry::new();
        let data = nfv_data::dataset::Dataset::new(
            vec!["a".into(), "b".into()],
            vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.5, 0.25],
            vec![0.0, 1.0, 2.0, 3.0, 1.5],
            nfv_data::dataset::Task::Regression,
        )
        .unwrap();
        let gbdt = Gbdt::fit(
            &data,
            &GbdtParams {
                n_rounds: 6,
                ..Default::default()
            },
            0,
        )
        .unwrap();
        let bg = Background::from_rows(vec![vec![0.0, 0.0], vec![1.0, 1.0]]).unwrap();
        reg.register("g", ServeModel::Gbdt(gbdt), data.names.clone(), bg)
            .unwrap();
        let entry = reg.get("g").unwrap();
        assert!(entry.trees.is_some(), "tree models carry their structure");
        let e = entry.explainer(ExplainMethod::TreeShap).unwrap();
        assert_eq!(e.tag(), "tree-shap");
        assert!(!e.fusable());
    }

    #[test]
    fn tree_shap_base_value_is_cached_bit_identically() {
        let synth = nfv_data::synth::friedman1(200, 5, 0.1, 17).unwrap();
        let names = synth.data.names.clone();
        let bg = Background::from_dataset(&synth.data, 8, 1).unwrap();
        let gbdt = Gbdt::fit(&synth.data, &GbdtParams::default(), 0).unwrap();
        let forest = RandomForest::fit(&synth.data, &ForestParams::default(), 0, 1).unwrap();
        use nfv_xai::shapley::tree::tree_expected_value;
        // The per-call sums the kernel used to run.
        let mut gbdt_base = gbdt.base_score;
        for t in &gbdt.trees {
            gbdt_base += gbdt.learning_rate * tree_expected_value(t);
        }
        let mut forest_base = 0.0;
        for t in &forest.trees {
            forest_base += tree_expected_value(t);
        }
        forest_base /= forest.trees.len() as f64;

        let reg = ModelRegistry::new();
        reg.register("g", ServeModel::Gbdt(gbdt), names.clone(), bg.clone())
            .unwrap();
        reg.register("f", ServeModel::Forest(forest), names, bg)
            .unwrap();
        for (id, expect) in [("g", gbdt_base), ("f", forest_base)] {
            let entry = reg.get(id).unwrap();
            let cached = entry.trees.as_ref().unwrap().consts().base_value();
            assert_eq!(cached.to_bits(), expect.to_bits(), "model `{id}`");
            // And it is the base value every answer carries.
            let explainer = entry.explainer(ExplainMethod::TreeShap).unwrap();
            let mut ws = CoalitionWorkspace::default();
            let x = synth.data.row(0);
            let attr = crate::worker::explain_one(&entry, &*explainer, x, 0, &mut ws).unwrap();
            assert_eq!(attr.base_value.to_bits(), expect.to_bits());
        }
    }

    #[test]
    fn unknown_method_ids_get_a_typed_reject() {
        let reg = ModelRegistry::new();
        let (m, names, bg) = linear_entry();
        reg.register("lin", m, names, bg).unwrap();
        let entry = reg.get("lin").unwrap();
        let bogus = ExplainMethod::custom("no-such-method-registered", 4);
        let err = entry.supports(bogus).unwrap_err();
        match err {
            ServeError::Rejected(RejectReason::UnknownMethod { method }) => {
                // No registered name to report, so the reject carries the
                // lossless #hex escape of the interned id.
                assert_eq!(method, bogus.display_name());
                assert!(method.starts_with('#'));
            }
            other => panic!("expected UnknownMethod, got {other:?}"),
        }
        // explainer() misses the same way.
        assert!(entry.explainer(bogus).is_err());
    }

    #[test]
    fn anytime_divisors_are_per_model_method_with_default() {
        let reg = ModelRegistry::new();
        let kernel_id = ExplainMethod::KernelShap { n_coalitions: 512 }.method_id();
        let lime_id = ExplainMethod::Lime { n_samples: 512 }.method_id();
        assert_eq!(reg.anytime_divisor("m", kernel_id), DEFAULT_ANYTIME_DIVISOR);
        reg.set_anytime_divisor("m", "kernel-shap", 4);
        reg.set_anytime_divisor("m", "lime", 0); // clamped to 1 = never degrade
        assert_eq!(reg.anytime_divisor("m", kernel_id), 4);
        assert_eq!(reg.anytime_divisor("m", lime_id), 1);
        // Other models keep the default; deregistration clears config.
        assert_eq!(
            reg.anytime_divisor("other", kernel_id),
            DEFAULT_ANYTIME_DIVISOR
        );
        reg.deregister("m");
        assert_eq!(reg.anytime_divisor("m", kernel_id), DEFAULT_ANYTIME_DIVISOR);
    }
}
