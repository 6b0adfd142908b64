//! The open explainer registry: string-keyed method dispatch.
//!
//! Every servable attribution method — the seven built-ins plus anything
//! registered at runtime — lives in one process-wide [`MethodRegistry`]
//! mapping an **interned method id** (FNV-1a of the method name, see
//! [`method_id`]) to a [`MethodDescriptor`]: a factory closure
//! `Fn(&MethodConfig) -> Box<dyn Explainer>` plus an optional per-model
//! capability validator. Serving layers dispatch by id lookup only; no
//! layer above this module matches on a closed method enum.
//!
//! ## Why ids, not names
//!
//! Cache keys, content-derived seeds, and admission service-class keys
//! must be stable across processes and releases. A `&'static str` address
//! is neither hashable-stably nor wire-portable; the FNV-1a id of the
//! *frozen* built-in name is both. The built-in name → id mapping is
//! frozen (tested in `frozen_builtin_ids`); renaming a built-in is a
//! breaking change to every persisted cache fingerprint and
//! must never happen silently.
//!
//! ## Registering your own method
//!
//! ```
//! use nfv_xai::prelude::*;
//! use std::sync::Arc;
//!
//! struct Doubler;
//! impl Explainer for Doubler {
//!     fn tag(&self) -> &'static str { "doubler" }
//!     fn fusable(&self) -> bool { false }
//!     fn plan(
//!         &self,
//!         _ctx: &ExplainContext<'_>,
//!         _ws: &mut CoalitionWorkspace,
//!         _block: &mut FusedBlock,
//!     ) -> Result<Box<dyn ExplainPlan>, XaiError> {
//!         Err(XaiError::Input("doubler cannot plan".into()))
//!     }
//!     fn direct(
//!         &self,
//!         ctx: &ExplainContext<'_>,
//!         _ws: &mut CoalitionWorkspace,
//!     ) -> Result<Attribution, XaiError> {
//!         let base = ctx.base_value();
//!         let pred = ctx.model.predict(ctx.x);
//!         let d = ctx.x.len() as f64;
//!         Ok(Attribution {
//!             names: ctx.names.into(),
//!             values: ctx.x.iter().map(|_| (pred - base) / d).collect(),
//!             base_value: base,
//!             prediction: pred,
//!             method: "doubler".into(),
//!         })
//!     }
//! }
//!
//! let id = MethodRegistry::global().register("doubler", |_cfg| Ok(Box::new(Doubler)));
//! assert_eq!(id, method_id("doubler"));
//! assert!(MethodRegistry::global().get(id).is_some());
//! ```

use crate::background::{CoalitionWorkspace, FusedBlock};
use crate::explainer::{
    ExplainContext, ExplainPlan, Explainer, KernelShapExplainer, LimeExplainer,
    PermutationExplainer, SamplingShapleyExplainer,
};
use crate::explanation::Attribution;
use crate::grouped::{FeatureGroups, MAX_GROUPS};
use crate::interactions::MAX_INTERACTION_FEATURES;
use crate::shapley::exact::check_players;
use crate::shapley::{ensemble_shap, Enumeration, TreeShapConsts, MAX_EXACT_FEATURES};
use crate::XaiError;
use nfv_ml::forest::RandomForest;
use nfv_ml::gbdt::Gbdt;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

/// Interns a method name as its 64-bit FNV-1a hash.
///
/// This is the *only* name → id function in the system: serving cache
/// keys, admission service-class keys, and the method id on the wire all
/// derive from it. `const` so frozen built-in ids can live in `const` tables.
pub const fn method_id(name: &str) -> u64 {
    // FNV-1a, same constants as the serving layer's row hashing.
    let bytes = name.as_bytes();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut i = 0;
    while i < bytes.len() {
        hash ^= bytes[i] as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        i += 1;
    }
    hash
}

/// A tree-structured model an explainer can walk directly (TreeSHAP needs
/// model internals, not just a `Regressor` surface), paired with the
/// TreeSHAP constants derived from it — built once per model, so serving a
/// request re-derives neither.
#[derive(Debug, Clone)]
pub struct TreeModel {
    ensemble: TreeEnsemble,
    consts: TreeShapConsts,
}

#[derive(Debug, Clone)]
enum TreeEnsemble {
    Gbdt(Arc<Gbdt>),
    Forest(Arc<RandomForest>),
}

impl TreeModel {
    /// A gradient-boosted ensemble (explained in margin space).
    pub fn gbdt(model: Arc<Gbdt>) -> TreeModel {
        TreeModel {
            consts: TreeShapConsts::gbdt(&model),
            ensemble: TreeEnsemble::Gbdt(model),
        }
    }

    /// A bagged random forest.
    pub fn forest(model: Arc<RandomForest>) -> TreeModel {
        TreeModel {
            consts: TreeShapConsts::forest(&model),
            ensemble: TreeEnsemble::Forest(model),
        }
    }

    /// The per-model TreeSHAP constants (base value, scale, depth, the
    /// quadrature rule).
    pub fn consts(&self) -> &TreeShapConsts {
        &self.consts
    }
}

/// Everything a method factory may need to build an [`Explainer`] for one
/// (model, method, service class) combination.
///
/// Built by the serving layer per resolution — reference counts on the
/// model entry's state, no copies; factories read only the fields they
/// care about and must error (not panic) on missing ones.
#[derive(Clone, Default)]
pub struct MethodConfig {
    /// The method's opaque budget word (e.g. coalition count for
    /// KernelSHAP, `2·P + antithetic` for sampling Shapley). Zero for
    /// deterministic methods.
    pub budget: u64,
    /// Feature count of the model being explained.
    pub n_features: usize,
    /// Feature grouping, for group-valued methods (Owen/grouped Shapley),
    /// shared with the model entry that derived it.
    pub groups: Option<Arc<FeatureGroups>>,
    /// The tree structure, when the model is a tree ensemble, shared with
    /// the model entry. TreeSHAP requires it; other methods ignore it.
    pub trees: Option<Arc<TreeModel>>,
}

/// What a model can support, for per-method capability validation.
#[derive(Debug, Clone, Copy)]
pub struct ModelCaps {
    /// Feature count.
    pub n_features: usize,
    /// Number of feature groups the registration derived.
    pub n_groups: usize,
    /// Whether the model exposes walkable tree structure.
    pub is_tree: bool,
    /// Human-readable model kind (for error messages).
    pub kind: &'static str,
}

type Factory = Arc<dyn Fn(&MethodConfig) -> Result<Box<dyn Explainer>, XaiError> + Send + Sync>;
type Validator = Arc<dyn Fn(&ModelCaps) -> Result<(), String> + Send + Sync>;

/// One registered method: its frozen name, interned id, factory, and
/// optional capability validator.
#[derive(Clone)]
pub struct MethodDescriptor {
    name: Arc<str>,
    id: u64,
    factory: Factory,
    validator: Option<Validator>,
}

impl MethodDescriptor {
    /// The registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The interned id (`method_id(self.name())`).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Builds an explainer for one resolution.
    pub fn instantiate(&self, cfg: &MethodConfig) -> Result<Box<dyn Explainer>, XaiError> {
        (self.factory)(cfg)
    }

    /// Checks the method against a model's capabilities. `Err` carries a
    /// human-readable reason suitable for a typed reject.
    pub fn validate(&self, caps: &ModelCaps) -> Result<(), String> {
        match &self.validator {
            Some(v) => v(caps),
            None => Ok(()),
        }
    }
}

/// The process-wide, open method registry.
///
/// [`MethodRegistry::global`] lazily registers the built-ins on first use;
/// tests and embedders add their own methods with
/// [`MethodRegistry::register`]. Lookups are by interned id, so the hot
/// serving path does one `HashMap` probe under a read lock — no string
/// comparison, no enum match.
pub struct MethodRegistry {
    methods: RwLock<HashMap<u64, MethodDescriptor>>,
}

impl MethodRegistry {
    /// An empty registry (no built-ins). Prefer [`MethodRegistry::global`].
    pub fn new() -> MethodRegistry {
        MethodRegistry {
            methods: RwLock::new(HashMap::new()),
        }
    }

    /// The process-wide registry, with all built-in methods registered.
    pub fn global() -> &'static MethodRegistry {
        static GLOBAL: OnceLock<MethodRegistry> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let reg = MethodRegistry::new();
            register_builtins(&reg);
            reg
        })
    }

    /// Registers (or replaces — last registration wins, so tests can
    /// shadow) a method by name. Returns the interned id.
    pub fn register<F>(&self, name: &str, factory: F) -> u64
    where
        F: Fn(&MethodConfig) -> Result<Box<dyn Explainer>, XaiError> + Send + Sync + 'static,
    {
        self.register_with_validator_impl(name, Arc::new(factory), None)
    }

    /// Like [`MethodRegistry::register`], with a capability validator the
    /// serving layer runs at admission (shape/kind guards produce typed
    /// rejects instead of mid-flight explain errors).
    pub fn register_with_validator<F, V>(&self, name: &str, factory: F, validator: V) -> u64
    where
        F: Fn(&MethodConfig) -> Result<Box<dyn Explainer>, XaiError> + Send + Sync + 'static,
        V: Fn(&ModelCaps) -> Result<(), String> + Send + Sync + 'static,
    {
        self.register_with_validator_impl(name, Arc::new(factory), Some(Arc::new(validator)))
    }

    fn register_with_validator_impl(
        &self,
        name: &str,
        factory: Factory,
        validator: Option<Validator>,
    ) -> u64 {
        let id = method_id(name);
        let desc = MethodDescriptor {
            name: Arc::from(name),
            id,
            factory,
            validator,
        };
        self.methods
            .write()
            .expect("method registry poisoned")
            .insert(id, desc);
        id
    }

    /// Looks up a method by interned id.
    pub fn get(&self, id: u64) -> Option<MethodDescriptor> {
        self.methods
            .read()
            .expect("method registry poisoned")
            .get(&id)
            .cloned()
    }

    /// Looks up a method by name.
    pub fn get_by_name(&self, name: &str) -> Option<MethodDescriptor> {
        self.get(method_id(name))
    }

    /// The registered name behind an id, if any.
    pub fn name_of(&self, id: u64) -> Option<Arc<str>> {
        self.methods
            .read()
            .expect("method registry poisoned")
            .get(&id)
            .map(|d| Arc::clone(&d.name))
    }

    /// All registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .methods
            .read()
            .expect("method registry poisoned")
            .values()
            .map(|d| d.name.to_string())
            .collect();
        out.sort();
        out
    }

    /// Number of registered methods.
    pub fn len(&self) -> usize {
        self.methods.read().expect("method registry poisoned").len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for MethodRegistry {
    fn default() -> Self {
        MethodRegistry::new()
    }
}

/// TreeSHAP behind the [`Explainer`] trait: walks the owned tree
/// structure directly (the `ExplainContext` model — possibly a packed SoA
/// engine — is ignored; both are bit-identical by the packing contract),
/// with the per-feature path state of the caller's [`CoalitionWorkspace`].
#[derive(Clone)]
pub struct TreeShapExplainer {
    /// The tree ensemble to walk.
    pub trees: Arc<TreeModel>,
}

impl Explainer for TreeShapExplainer {
    fn tag(&self) -> &'static str {
        "tree-shap"
    }
    fn fusable(&self) -> bool {
        false
    }
    fn plan(
        &self,
        _ctx: &ExplainContext<'_>,
        _ws: &mut CoalitionWorkspace,
        _block: &mut FusedBlock,
    ) -> Result<Box<dyn ExplainPlan>, XaiError> {
        Err(XaiError::Input(
            "tree-shap walks tree structure; it does not plan into a fused block".into(),
        ))
    }
    fn direct(
        &self,
        ctx: &ExplainContext<'_>,
        ws: &mut CoalitionWorkspace,
    ) -> Result<Attribution, XaiError> {
        let (trees, prediction) = match &self.trees.ensemble {
            TreeEnsemble::Gbdt(m) => (&m.trees, m.margin(ctx.x)),
            TreeEnsemble::Forest(m) => (&m.trees, m.output(ctx.x)),
        };
        let consts = &self.trees.consts;
        ensemble_shap(trees, consts, prediction, ctx.x, ctx.names, &mut ws.tree)
    }
}

fn register_builtins(reg: &MethodRegistry) {
    reg.register_with_validator(
        "tree-shap",
        |cfg| match &cfg.trees {
            Some(trees) => Ok(Box::new(TreeShapExplainer {
                trees: Arc::clone(trees),
            })),
            None => Err(XaiError::Input("tree-shap requires a tree model".into())),
        },
        |caps| {
            if caps.is_tree {
                Ok(())
            } else {
                Err(format!(
                    "tree-shap requires a tree model, got `{}`",
                    caps.kind
                ))
            }
        },
    );
    reg.register("kernel-shap", |cfg| {
        Ok(Box::new(KernelShapExplainer {
            n_coalitions: cfg.budget as usize,
            ridge: 0.0,
        }))
    });
    reg.register("lime", |cfg| {
        Ok(Box::new(LimeExplainer {
            n_samples: cfg.budget as usize,
        }))
    });
    reg.register("sampling-shapley", |cfg| {
        Ok(Box::new(SamplingShapleyExplainer {
            n_permutations: (cfg.budget / 2) as usize,
            antithetic: cfg.budget & 1 == 1,
        }))
    });
    reg.register_with_validator(
        "exact-shapley",
        |_cfg| Ok(Box::new(Enumeration::Features)),
        |caps| {
            check_players(
                "exact-shapley",
                "features",
                caps.n_features,
                1,
                MAX_EXACT_FEATURES,
            )
        },
    );
    reg.register_with_validator(
        "grouped-shapley",
        |cfg| match &cfg.groups {
            Some(groups) => Ok(Box::new(Enumeration::Groups(Arc::clone(groups)))),
            None => Err(XaiError::Input(
                "grouped-shapley requires feature groups".into(),
            )),
        },
        |caps| check_players("grouped-shapley", "groups", caps.n_groups, 1, MAX_GROUPS),
    );
    reg.register("permutation", |_cfg| Ok(Box::new(PermutationExplainer)));
    reg.register_with_validator(
        "interactions",
        |_cfg| Ok(Box::new(Enumeration::Interactions)),
        |caps| {
            check_players(
                "interactions",
                "features",
                caps.n_features,
                2,
                MAX_INTERACTION_FEATURES,
            )
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::background::Background;
    use nfv_data::synth::friedman1;
    use nfv_ml::gbdt::{Gbdt, GbdtParams};

    /// The frozen built-in name → id mapping. These literals are load-
    /// bearing: serving cache fingerprints, EWMA service-class keys, and
    /// content-derived seeds all hash the id, so a change here invalidates
    /// every persisted baseline. Never update the expected values —
    /// register a *new* name instead.
    #[test]
    fn frozen_builtin_ids() {
        let frozen: [(&str, u64); 8] = [
            ("tree-shap", 0x54c3_ee37_5518_dfea),
            ("kernel-shap", 0xe245_1ecf_d5f1_684d),
            ("lime", 0xbf55_95ad_6957_925c),
            ("sampling-shapley", 0x65b4_6f9c_e1c6_6499),
            ("exact-shapley", 0xec01_0b19_9367_dfe5),
            ("grouped-shapley", 0x1fc7_9ffb_7312_d74c),
            ("permutation", 0x30c0_a849_13fc_221b),
            ("interactions", 0xa29e_e326_d09f_9848),
        ];
        for (name, id) in frozen {
            assert_eq!(method_id(name), id, "frozen id drifted for `{name}`");
            let desc = MethodRegistry::global()
                .get(id)
                .unwrap_or_else(|| panic!("builtin `{name}` not registered"));
            assert_eq!(desc.name(), name);
            assert_eq!(desc.id(), id);
        }
    }

    #[test]
    fn global_registers_all_builtins_and_lookup_by_name_works() {
        let reg = MethodRegistry::global();
        assert!(reg.len() >= 8);
        for name in [
            "tree-shap",
            "kernel-shap",
            "lime",
            "sampling-shapley",
            "exact-shapley",
            "grouped-shapley",
            "permutation",
            "interactions",
        ] {
            let d = reg.get_by_name(name).expect("builtin registered");
            assert_eq!(d.name(), name);
            assert_eq!(reg.name_of(d.id()).as_deref(), Some(name));
        }
        assert!(reg.get(0xdead_beef_dead_beef).is_none());
    }

    #[test]
    fn factories_honor_budget_words_and_missing_inputs() {
        let reg = MethodRegistry::global();
        let cfg = MethodConfig {
            budget: 64 * 2 + 1,
            ..Default::default()
        };
        let e = reg
            .get_by_name("sampling-shapley")
            .unwrap()
            .instantiate(&cfg)
            .unwrap();
        assert_eq!(e.tag(), "sampling-shapley");
        // Group- and tree-backed methods refuse configs missing their input.
        for name in ["grouped-shapley", "tree-shap"] {
            let err = reg
                .get_by_name(name)
                .unwrap()
                .instantiate(&MethodConfig::default());
            assert!(err.is_err(), "{name} should refuse an empty config");
        }
    }

    #[test]
    fn validators_gate_capabilities() {
        let reg = MethodRegistry::global();
        let tree_caps = ModelCaps {
            n_features: 8,
            n_groups: 3,
            is_tree: true,
            kind: "gbdt",
        };
        let wide_caps = ModelCaps {
            n_features: 40,
            n_groups: 30,
            is_tree: false,
            kind: "linear",
        };
        let checks = [
            ("tree-shap", tree_caps, wide_caps),
            ("exact-shapley", tree_caps, wide_caps),
            ("grouped-shapley", tree_caps, wide_caps),
            ("interactions", tree_caps, wide_caps),
        ];
        for (name, ok, bad) in checks {
            let d = reg.get_by_name(name).unwrap();
            assert!(d.validate(&ok).is_ok(), "{name} should accept {ok:?}");
            assert!(d.validate(&bad).is_err(), "{name} should reject {bad:?}");
        }
        // Unvalidated methods accept anything.
        let d = reg.get_by_name("kernel-shap").unwrap();
        assert!(d.validate(&wide_caps).is_ok());
    }

    #[test]
    fn interactions_explainer_flattens_with_exact_efficiency() {
        let synth = friedman1(200, 5, 0.05, 11).unwrap();
        let d = synth.data.names.len();
        let model = Gbdt::fit(
            &synth.data,
            &GbdtParams {
                n_rounds: 12,
                ..Default::default()
            },
            0,
        )
        .unwrap();
        let background = Background::from_dataset(&synth.data, 12, 3).unwrap();
        let x = synth.data.row(0).to_vec();
        let ctx = ExplainContext {
            model: &model,
            x: &x,
            background: &background,
            names: &synth.data.names,
            base_hint: None,
            seed: 7,
        };
        let mut ws = CoalitionWorkspace::default();
        let attr = Enumeration::Interactions.direct(&ctx, &mut ws).unwrap();
        assert_eq!(attr.values.len(), d * d);
        assert_eq!(attr.names.len(), d * d);
        assert_eq!(attr.method, "interactions");
        assert!(
            attr.efficiency_gap().abs() < 1e-8,
            "flattened interactions must stay efficient, gap = {}",
            attr.efficiency_gap()
        );
        // Matches the raw matrix entry-for-entry.
        let m = crate::interactions::interaction_values(&model, &x, &background, &synth.data.names)
            .unwrap();
        for i in 0..d {
            for j in 0..d {
                assert_eq!(attr.values[i * d + j], m.get(i, j));
            }
        }
        // Diagonal keeps the plain feature name; off-diagonal names the pair.
        assert_eq!(attr.names[0], synth.data.names[0]);
        assert!(attr.names[1].contains('×'));
    }

    #[test]
    fn tree_shap_explainer_matches_free_function() {
        let synth = friedman1(200, 5, 0.05, 5).unwrap();
        let model = Gbdt::fit(
            &synth.data,
            &GbdtParams {
                n_rounds: 10,
                ..Default::default()
            },
            0,
        )
        .unwrap();
        let background = Background::from_dataset(&synth.data, 8, 3).unwrap();
        let x = synth.data.row(3).to_vec();
        let expect = crate::shapley::gbdt_shap(&model, &x, &synth.data.names).unwrap();
        let model = Arc::new(model);
        let explainer = TreeShapExplainer {
            trees: Arc::new(TreeModel::gbdt(Arc::clone(&model))),
        };
        let ctx = ExplainContext {
            model: model.as_ref(),
            x: &x,
            background: &background,
            names: &synth.data.names,
            base_hint: None,
            seed: 0,
        };
        let mut ws = CoalitionWorkspace::default();
        let got = explainer.direct(&ctx, &mut ws).unwrap();
        assert_eq!(got.values, expect.values);
        assert_eq!(got.base_value, expect.base_value);
        assert!(!explainer.fusable());
        assert!(explainer
            .plan(&ctx, &mut ws, &mut FusedBlock::default())
            .is_err());
    }

    #[test]
    fn registration_is_last_wins_and_names_sorted() {
        let reg = MethodRegistry::new();
        reg.register("alpha", |_| Ok(Box::new(Enumeration::Interactions)));
        reg.register("beta", |_| Ok(Box::new(Enumeration::Interactions)));
        reg.register("alpha", |_| Ok(Box::new(PermutationExplainer)));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.names(), vec!["alpha".to_string(), "beta".to_string()]);
        let e = reg
            .get_by_name("alpha")
            .unwrap()
            .instantiate(&MethodConfig::default())
            .unwrap();
        assert_eq!(e.tag(), "permutation", "last registration wins");
    }
}
