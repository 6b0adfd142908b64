//! Request/response types of the in-process serving API, plus the two
//! content hashes: the frozen FNV-1a behind per-request seeds and routing,
//! and the process-local fold behind the cache's lookup fingerprint.

use nfv_xai::prelude::{method_id, Attribution, MethodRegistry};
use std::sync::Arc;
use std::time::Duration;

/// Frozen interned ids of the built-in methods: `method_id(name)` of the
/// frozen names, precomputed so the hot hashing path is a table load.
/// These constants are part of the persistence format — cache
/// fingerprints, seeds, and EWMA service-class keys derive from them —
/// and must never change (enforced by `frozen_builtin_name_id_mapping`).
const ID_TREE_SHAP: u64 = method_id("tree-shap");
const ID_KERNEL_SHAP: u64 = method_id("kernel-shap");
const ID_LIME: u64 = method_id("lime");
const ID_SAMPLING_SHAPLEY: u64 = method_id("sampling-shapley");
const ID_EXACT_SHAPLEY: u64 = method_id("exact-shapley");
const ID_GROUPED_SHAPLEY: u64 = method_id("grouped-shapley");
const ID_PERMUTATION: u64 = method_id("permutation");
const ID_INTERACTIONS: u64 = method_id("interactions");

/// Which explanation method to run, with its sampling budget where one
/// applies. Budgets are part of the identity: a 64-coalition KernelSHAP
/// answer must never be served from a 512-coalition cache entry.
///
/// The named variants are ergonomic shorthands for the built-in methods;
/// [`ExplainMethod::Custom`] addresses anything registered at runtime in
/// the [`MethodRegistry`] by its interned id. All serving identity —
/// cache keys, seeds, admission classes — flows through
/// [`ExplainMethod::method_id`] and [`ExplainMethod::budget_word`], so a
/// built-in variant and a `Custom` carrying the same id and budget are
/// the same request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExplainMethod {
    /// Structure-aware TreeSHAP (tree models only; deterministic, no RNG).
    TreeShap,
    /// KernelSHAP with an explicit coalition budget.
    KernelShap {
        /// Coalition evaluation budget.
        n_coalitions: usize,
    },
    /// LIME with an explicit perturbation-sample budget.
    Lime {
        /// Number of perturbed samples.
        n_samples: usize,
    },
    /// Permutation-sampling Shapley with an explicit permutation budget.
    SamplingShapley {
        /// Permutations to draw.
        n_permutations: usize,
        /// Pair each permutation with its reverse (variance reduction).
        antithetic: bool,
    },
    /// Exact full-enumeration Shapley (deterministic; rejected above
    /// `nfv_xai::prelude::MAX_EXACT_FEATURES` features).
    ExactShapley,
    /// Exact Shapley over the model's per-stage feature groups
    /// (deterministic; groups derive from the registered feature names).
    GroupedShapley,
    /// Per-instance permutation attribution — leave-one-covariate-out
    /// (deterministic).
    Permutation,
    /// Exact pairwise Shapley interaction values: a `d×d` matrix flattened
    /// row-major into `d²` attribution entries (deterministic; rejected
    /// above `nfv_xai::prelude::MAX_INTERACTION_FEATURES` features). The
    /// first method served through the open registry.
    Interactions,
    /// A method registered at runtime in the [`MethodRegistry`], addressed
    /// by its interned id (`method_id(name)`). Construct with
    /// [`ExplainMethod::custom`].
    Custom {
        /// Interned method id — FNV-1a of the registered name.
        id: u64,
        /// Opaque budget word handed to the method's factory (and folded
        /// into the request identity).
        budget: u64,
    },
}

impl ExplainMethod {
    /// A runtime-registered method by name, with an opaque budget word.
    pub fn custom(name: &str, budget: u64) -> ExplainMethod {
        ExplainMethod::Custom {
            id: method_id(name),
            budget,
        }
    }

    /// Short tag for metrics and reports.
    pub fn tag(&self) -> &'static str {
        match self {
            ExplainMethod::TreeShap => "tree-shap",
            ExplainMethod::KernelShap { .. } => "kernel-shap",
            ExplainMethod::Lime { .. } => "lime",
            ExplainMethod::SamplingShapley { .. } => "sampling-shapley",
            ExplainMethod::ExactShapley => "exact-shapley",
            ExplainMethod::GroupedShapley => "grouped-shapley",
            ExplainMethod::Permutation => "permutation",
            ExplainMethod::Interactions => "interactions",
            ExplainMethod::Custom { .. } => "custom",
        }
    }

    /// The interned method id: `method_id(frozen name)` for built-ins, the
    /// carried id for [`ExplainMethod::Custom`]. This — never an enum
    /// discriminant — is what cache keys, content-derived seeds, and
    /// admission service classes hash, so ids are stable across processes,
    /// releases, and the wire.
    pub fn method_id(&self) -> u64 {
        match self {
            ExplainMethod::TreeShap => ID_TREE_SHAP,
            ExplainMethod::KernelShap { .. } => ID_KERNEL_SHAP,
            ExplainMethod::Lime { .. } => ID_LIME,
            ExplainMethod::SamplingShapley { .. } => ID_SAMPLING_SHAPLEY,
            ExplainMethod::ExactShapley => ID_EXACT_SHAPLEY,
            ExplainMethod::GroupedShapley => ID_GROUPED_SHAPLEY,
            ExplainMethod::Permutation => ID_PERMUTATION,
            ExplainMethod::Interactions => ID_INTERACTIONS,
            ExplainMethod::Custom { id, .. } => *id,
        }
    }

    /// The method's opaque budget word: the sampling budget folded into
    /// the request identity and handed to the registry factory. Zero for
    /// deterministic methods; `2·P + antithetic` for sampling Shapley so
    /// the variance-reduction flag is part of the identity.
    pub fn budget_word(&self) -> u64 {
        match self {
            ExplainMethod::KernelShap { n_coalitions } => *n_coalitions as u64,
            ExplainMethod::Lime { n_samples } => *n_samples as u64,
            ExplainMethod::SamplingShapley {
                n_permutations,
                antithetic,
            } => (*n_permutations as u64) * 2 + *antithetic as u64,
            ExplainMethod::Custom { budget, .. } => *budget,
            ExplainMethod::TreeShap
            | ExplainMethod::ExactShapley
            | ExplainMethod::GroupedShapley
            | ExplainMethod::Permutation
            | ExplainMethod::Interactions => 0,
        }
    }

    /// Interned id + budget word folded into the content hash.
    pub(crate) fn hash_parts(&self) -> (u64, u64) {
        (self.method_id(), self.budget_word())
    }

    /// The method's name for humans: the frozen name for built-ins; for
    /// [`ExplainMethod::Custom`], the registered name when the id
    /// resolves, else the `#hex` escape of the raw id.
    pub fn display_name(&self) -> String {
        match self {
            ExplainMethod::Custom { id, .. } => match MethodRegistry::global().name_of(*id) {
                Some(name) => name.to_string(),
                None => format!("#{id:016x}"),
            },
            _ => self.tag().to_string(),
        }
    }

    /// Rebuilds a method from its identity `(method_id, budget_word)` —
    /// the wire decoding of [`ExplainMethod::method_id`] /
    /// [`ExplainMethod::budget_word`]. A canonical variant comes back only
    /// when its identity is exactly `(id, budget)`; anything else is
    /// [`ExplainMethod::Custom`], so the budget word always survives
    /// (validation — not decoding — rejects ids no registry knows).
    pub fn from_parts(id: u64, budget: u64) -> ExplainMethod {
        let custom = ExplainMethod::Custom { id, budget };
        let canonical = match id {
            ID_TREE_SHAP => ExplainMethod::TreeShap,
            ID_KERNEL_SHAP => ExplainMethod::KernelShap {
                n_coalitions: budget as usize,
            },
            ID_LIME => ExplainMethod::Lime {
                n_samples: budget as usize,
            },
            ID_SAMPLING_SHAPLEY => ExplainMethod::SamplingShapley {
                n_permutations: (budget / 2) as usize,
                antithetic: budget & 1 == 1,
            },
            ID_EXACT_SHAPLEY => ExplainMethod::ExactShapley,
            ID_GROUPED_SHAPLEY => ExplainMethod::GroupedShapley,
            ID_PERMUTATION => ExplainMethod::Permutation,
            ID_INTERACTIONS => ExplainMethod::Interactions,
            _ => return custom,
        };
        if canonical.budget_word() == budget {
            canonical
        } else {
            custom
        }
    }

    /// The degraded variant of this method used by the anytime path: same
    /// method, sampling budget cut by `divisor` (floored so the coarse
    /// answer is still statistically meaningful). The divisor is
    /// per-service-class configuration (see
    /// `ModelRegistry::set_anytime_divisor`); ÷ 8 is the default. Returns
    /// the coarse method plus the coarse sample budget recorded in
    /// [`Fidelity::Coarse`]. `None` for deterministic methods (nothing to
    /// cut), for budgets already at or below the floor, and for
    /// [`ExplainMethod::Custom`] (the serving layer cannot know how to
    /// scale an opaque budget word) — those either run at full fidelity or
    /// reject.
    pub fn coarsened_with(&self, divisor: u64) -> Option<(ExplainMethod, u64)> {
        let divisor = divisor.max(1) as usize;
        match *self {
            ExplainMethod::KernelShap { n_coalitions } => {
                let coarse = (n_coalitions / divisor).max(8);
                (coarse < n_coalitions).then_some((
                    ExplainMethod::KernelShap {
                        n_coalitions: coarse,
                    },
                    coarse as u64,
                ))
            }
            ExplainMethod::Lime { n_samples } => {
                let coarse = (n_samples / divisor).max(16);
                (coarse < n_samples)
                    .then_some((ExplainMethod::Lime { n_samples: coarse }, coarse as u64))
            }
            ExplainMethod::SamplingShapley {
                n_permutations,
                antithetic,
            } => {
                let coarse = (n_permutations / divisor).max(2);
                (coarse < n_permutations).then_some((
                    ExplainMethod::SamplingShapley {
                        n_permutations: coarse,
                        antithetic,
                    },
                    coarse as u64,
                ))
            }
            ExplainMethod::TreeShap
            | ExplainMethod::ExactShapley
            | ExplainMethod::GroupedShapley
            | ExplainMethod::Permutation
            | ExplainMethod::Interactions
            | ExplainMethod::Custom { .. } => None,
        }
    }
}

/// The anytime path's default budget divisor, used for every service
/// class without an explicit `ModelRegistry::set_anytime_divisor` entry.
pub const DEFAULT_ANYTIME_DIVISOR: u64 = 8;

/// How faithful a served attribution is to the full-budget, full-precision
/// answer. Exact responses are bit-identical to a direct explainer run;
/// every lossy path is typed here — quantized cache storage and coarse
/// anytime budgets are never silent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fidelity {
    /// Full sampling budget, f64 storage: bit-identical to a direct run.
    Exact,
    /// Full budget, served from the quantized cold tier. The bound is the
    /// measured max-abs dequantization error for this entry (≤ scale/2).
    Quantized {
        /// Measured max-abs error of the dequantized values vs the exact f64s.
        max_abs_err: f64,
    },
    /// Reduced sampling budget from the anytime path; exact f64 storage.
    Coarse {
        /// The reduced budget (coalitions / samples / permutations) used.
        sample_budget: u64,
    },
    /// Reduced budget *and* quantized storage (a coarse entry demoted to
    /// the cold tier before its refinement landed).
    CoarseQuantized {
        /// The reduced budget (coalitions / samples / permutations) used.
        sample_budget: u64,
        /// Measured max-abs error of the dequantized values vs the stored f64s.
        max_abs_err: f64,
    },
}

impl Fidelity {
    /// True only for the bit-identical path.
    pub fn is_exact(&self) -> bool {
        matches!(self, Fidelity::Exact)
    }

    /// Sampling-budget grade: 0 = coarse, 1 = full. Cache upgrades are
    /// monotone in this grade (coarse entries may be overwritten by full
    /// ones, never the reverse).
    pub fn grade(&self) -> u8 {
        match self {
            Fidelity::Exact | Fidelity::Quantized { .. } => 1,
            Fidelity::Coarse { .. } | Fidelity::CoarseQuantized { .. } => 0,
        }
    }

    /// The numeric error bound introduced by storage (0.0 on exact-storage
    /// paths). This is *storage* error only; coarse sampling error is
    /// reported via the budget, not a numeric bound.
    pub fn max_abs_err(&self) -> f64 {
        match self {
            Fidelity::Exact | Fidelity::Coarse { .. } => 0.0,
            Fidelity::Quantized { max_abs_err } | Fidelity::CoarseQuantized { max_abs_err, .. } => {
                *max_abs_err
            }
        }
    }

    /// The coarse sampling budget, if any (0 on full-budget paths).
    pub fn sample_budget(&self) -> u64 {
        match self {
            Fidelity::Exact | Fidelity::Quantized { .. } => 0,
            Fidelity::Coarse { sample_budget }
            | Fidelity::CoarseQuantized { sample_budget, .. } => *sample_budget,
        }
    }

    /// Rebuild a fidelity from its wire encoding `(sample_budget,
    /// max_abs_err)` — the inverse of [`Fidelity::sample_budget`] /
    /// [`Fidelity::max_abs_err`].
    pub fn from_parts(sample_budget: u64, max_abs_err: f64) -> Fidelity {
        match (sample_budget, max_abs_err != 0.0) {
            (0, false) => Fidelity::Exact,
            (0, true) => Fidelity::Quantized { max_abs_err },
            (b, false) => Fidelity::Coarse { sample_budget: b },
            (b, true) => Fidelity::CoarseQuantized {
                sample_budget: b,
                max_abs_err,
            },
        }
    }
}

/// One explanation request.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainRequest {
    /// Registry id of the model to explain.
    pub model_id: String,
    /// The instance to explain (must match the model's feature count).
    pub features: Vec<f64>,
    /// Which explainer to run.
    pub method: ExplainMethod,
    /// End-to-end latency budget; admission control rejects requests it
    /// cannot serve within this, and workers drop requests whose budget
    /// expired while queued.
    pub budget: Duration,
}

/// A served explanation plus its provenance.
#[derive(Debug, Clone)]
pub struct ExplainResponse {
    /// The attribution (shared with the cache; cloning is pointer-cheap).
    pub attribution: Arc<Attribution>,
    /// Version of the model that produced it.
    pub model_version: u64,
    /// True when served from the cache without touching the queue/workers.
    pub cache_hit: bool,
    /// Requests that shared this answer's evaluation block; 1 when the
    /// request ran alone (its plan refused) and for cache hits.
    pub batch_size: usize,
    /// Time spent queued before a worker picked the request up.
    pub queue_wait: Duration,
    /// Compute time attributed to this request: its share, by rows, of its
    /// block's evaluation and finish, or its own run when it ran alone.
    pub service_time: Duration,
    /// How faithful this answer is to the exact full-budget result.
    pub fidelity: Fidelity,
}

impl ExplainResponse {
    /// An answer from a cache entry or a single-flight leader.
    pub(crate) fn hit(attribution: Arc<Attribution>, version: u64, fidelity: Fidelity) -> Self {
        ExplainResponse {
            attribution,
            model_version: version,
            cache_hit: true,
            batch_size: 1,
            queue_wait: Duration::ZERO,
            service_time: Duration::ZERO,
            fidelity,
        }
    }
}

/// Incremental FNV-1a over explicit little-endian words: a stable,
/// dependency-free content hash. [`CacheKey::stable_hash`], per-request
/// seeds and ring routing derive from it, so its value must be identical
/// across runs, platforms and releases (`DefaultHasher` makes no such
/// promise) — frozen by `frozen_stable_hash_seed_and_route_literals`.
///
/// [`CacheKey::stable_hash`]: crate::cache::CacheKey::stable_hash
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) fn new() -> Fnv1a {
        #[cfg(test)]
        fold_count::FNV.with(|n| n.set(n.get() + 1));
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// [`Fnv1a`] over a whole word sequence.
pub(crate) fn fnv1a_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv1a::new();
    for w in words {
        h.word(w);
    }
    h.finish()
}

/// Stable identity of a (model-version, method) *service class* — the
/// granularity at which admission control tracks service-time EWMAs. A
/// 8-coalition KernelSHAP request and a TreeSHAP request against the same
/// model differ by orders of magnitude in cost; folding the version in
/// keeps estimates from a retired model from polluting its replacement.
/// Never zero: zero marks an empty slot in the metrics table.
///
/// The method contributes its *interned id* (FNV-1a of the frozen method
/// name — see [`ExplainMethod::method_id`]) plus its budget word, never a
/// Rust enum discriminant, so class keys are identical across processes
/// and survive registry growth: adding a method can never renumber the
/// classes of existing ones.
pub(crate) fn service_class_key(model_version: u64, method: ExplainMethod) -> u64 {
    let (method_id, sample_budget) = method.hash_parts();
    fnv1a_words([model_version, method_id, sample_budget]).max(1)
}

/// The seed a worker hands a stochastic explainer for one request:
/// derived from the engine seed and the request's stable content hash, so
/// results depend only on *what* is asked — never on arrival order,
/// batch composition, worker thread, or cluster shard.
pub fn request_seed(engine_seed: u64, key_hash: u64) -> u64 {
    fnv1a_words([engine_seed, key_hash])
}

/// FNV-1a over raw bytes (for model ids).
pub(crate) fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    #[cfg(test)]
    fold_count::FNV.with(|n| n.set(n.get() + 1));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The fold behind a request's 128-bit *lookup fingerprint*: two 64-bit
/// lanes (different multipliers, seeds and rotations), each taking a
/// whole word per step — xor, odd multiply, rotate — and finished with a
/// full avalanche. Every step is a bijection of the lane, so two keys
/// that differ in exactly one word always differ in both lanes.
///
/// Unlike [`Fnv1a`] this value is **process-local**: the constants are
/// fixed, so shard placement repeats run to run, but nothing persists a
/// fingerprint or sends it over the wire, and the function may change
/// between releases. Anything that must agree across processes (seeds,
/// routing) uses [`Fnv1a`].
pub(crate) struct LookupFold {
    a: u64,
    b: u64,
}

impl LookupFold {
    const MUL_A: u64 = 0x9e37_79b9_7f4a_7c15;
    const MUL_B: u64 = 0xd6e8_feb8_6659_fd93;

    pub(crate) fn new() -> LookupFold {
        #[cfg(test)]
        fold_count::LOOKUP.with(|n| n.set(n.get() + 1));
        LookupFold {
            a: 0x243f_6a88_85a3_08d3,
            b: 0x1319_8a2e_0370_7344,
        }
    }

    /// The rotation brings the product's well-mixed high bits down to
    /// where the next multiply spreads them again.
    #[inline]
    pub(crate) fn word(&mut self, w: u64) {
        self.a = (self.a ^ w).wrapping_mul(Self::MUL_A).rotate_left(32);
        self.b = (self.b ^ w).wrapping_mul(Self::MUL_B).rotate_left(29);
    }

    /// Folds a byte string eight bytes per step (zero-padded tail), then
    /// its length, so `"ab" + "c"` and `"a" + "bc"` stay apart.
    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let last = tail.iter().rev().fold(0, |w, &b| (w << 8) | b as u64);
            self.word(last);
        }
        self.word(bytes.len() as u64);
    }

    /// Lane `a` avalanched in the low half, lane `b` in the high half.
    pub(crate) fn finish(&self) -> u128 {
        // The 64-bit finalizer of MurmurHash3 (a bijection).
        fn avalanche(mut h: u64) -> u64 {
            h ^= h >> 33;
            h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
            h ^= h >> 33;
            h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
            h ^ (h >> 33)
        }
        ((avalanche(self.b) as u128) << 64) | avalanche(self.a) as u128
    }
}

/// Per-thread counts of hash passes started, so a test can assert what a
/// cache hit executes: one [`LookupFold`], no FNV pass.
#[cfg(test)]
pub(crate) mod fold_count {
    use std::cell::Cell;

    thread_local! {
        pub(crate) static FNV: Cell<u64> = const { Cell::new(0) };
        pub(crate) static LOOKUP: Cell<u64> = const { Cell::new(0) };
    }

    /// (FNV passes, lookup folds) started on this thread so far.
    pub(crate) fn snapshot() -> (u64, u64) {
        (FNV.with(Cell::get), LOOKUP.with(Cell::get))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_stable_and_sensitive() {
        let a = fnv1a_words([1, 2, 3]);
        assert_eq!(a, fnv1a_words([1, 2, 3]), "deterministic");
        assert_ne!(a, fnv1a_words([1, 2, 4]));
        assert_ne!(a, fnv1a_words([3, 2, 1]), "order matters");
        assert_ne!(fnv1a_bytes(b"gbdt"), fnv1a_bytes(b"mlp"));
    }

    #[test]
    fn method_identity_includes_budget() {
        let a = ExplainMethod::KernelShap { n_coalitions: 64 };
        let b = ExplainMethod::KernelShap { n_coalitions: 512 };
        assert_ne!(a.hash_parts(), b.hash_parts());
        assert_eq!(a.tag(), b.tag());
        let s = ExplainMethod::SamplingShapley {
            n_permutations: 32,
            antithetic: false,
        };
        let s_anti = ExplainMethod::SamplingShapley {
            n_permutations: 32,
            antithetic: true,
        };
        assert_ne!(
            s.hash_parts(),
            s_anti.hash_parts(),
            "antithetic is identity"
        );
    }

    /// The frozen built-in name → id mapping, spelled out as literals.
    /// Cache fingerprints and EWMA service-class keys
    /// all hash these ids; if this test fails, the migration broke every
    /// persisted key. Never update the literals — register a new name.
    #[test]
    fn frozen_builtin_name_id_mapping() {
        let frozen: [(ExplainMethod, &str, u64); 8] = [
            (ExplainMethod::TreeShap, "tree-shap", 0x54c3_ee37_5518_dfea),
            (
                ExplainMethod::KernelShap { n_coalitions: 64 },
                "kernel-shap",
                0xe245_1ecf_d5f1_684d,
            ),
            (
                ExplainMethod::Lime { n_samples: 256 },
                "lime",
                0xbf55_95ad_6957_925c,
            ),
            (
                ExplainMethod::SamplingShapley {
                    n_permutations: 32,
                    antithetic: true,
                },
                "sampling-shapley",
                0x65b4_6f9c_e1c6_6499,
            ),
            (
                ExplainMethod::ExactShapley,
                "exact-shapley",
                0xec01_0b19_9367_dfe5,
            ),
            (
                ExplainMethod::GroupedShapley,
                "grouped-shapley",
                0x1fc7_9ffb_7312_d74c,
            ),
            (
                ExplainMethod::Permutation,
                "permutation",
                0x30c0_a849_13fc_221b,
            ),
            (
                ExplainMethod::Interactions,
                "interactions",
                0xa29e_e326_d09f_9848,
            ),
        ];
        for (m, name, id) in frozen {
            assert_eq!(m.tag(), name, "frozen name drifted");
            assert_eq!(m.method_id(), id, "frozen id drifted for `{name}`");
            assert_eq!(method_id(name), id, "method_id() drifted for `{name}`");
        }
    }

    /// `stable_hash`, `request_seed` (engine seed 7) and `route_hash` of
    /// one fixed d = 14 key per built-in method, captured at commit
    /// `a895cb5` before the lookup fingerprint existed. Seeds decide every
    /// stochastic answer and route hashes every key's home shard, across
    /// processes and releases: never update the literals.
    #[test]
    fn frozen_stable_hash_seed_and_route_literals() {
        use crate::cache::CacheKey;
        use crate::cluster::route_hash;
        const X: [f64; 14] = [
            0.5, -1.25, 3.0, 0.0, 1e-3, 42.0, -7.5, 0.125, 9.75, 100.0, -0.001, 2.5, 6.0, 0.33,
        ];
        #[rustfmt::skip]
        let frozen: [(ExplainMethod, u64, u64, u64); 8] = [
            (ExplainMethod::TreeShap,
             0xdb0a_3598_a6f9_603b, 0x1599_2950_ea36_af56, 0x6cdd_6e89_76f7_ac48),
            (ExplainMethod::KernelShap { n_coalitions: 64 },
             0xa9fb_6475_d9e0_5cc4, 0xa417_9c46_eff1_44a4, 0xb1b7_09a8_0242_1677),
            (ExplainMethod::Lime { n_samples: 256 },
             0xf7b4_78a7_1393_e576, 0x4fe8_4adf_9f5c_739b, 0x6451_32f7_0348_583d),
            (ExplainMethod::SamplingShapley { n_permutations: 32, antithetic: true },
             0xd93e_8232_e631_0806, 0xe835_08c5_ac84_9efa, 0x241b_0bf0_23f8_f2a1),
            (ExplainMethod::ExactShapley,
             0x5bb0_7581_18e9_d1fa, 0x584a_5190_3aff_df9d, 0x3590_c170_d333_455d),
            (ExplainMethod::GroupedShapley,
             0x846c_74e7_3392_7dff, 0x75c1_9ede_bc80_6d5e, 0x841f_f4be_c0ef_4dd4),
            (ExplainMethod::Permutation,
             0x43b8_3c5b_e5bc_d310, 0xd39b_e13c_898c_af36, 0x57d8_4188_aaa1_c923),
            (ExplainMethod::Interactions,
             0x5766_6071_31ea_2819, 0x3dc4_de3f_6434_a974, 0xc641_a954_d1ba_7422),
        ];
        for (m, hash, seed, route) in frozen {
            let key = CacheKey::build("sla-gbdt", 3, m, &X, 1e-6).unwrap();
            let tag = m.tag();
            assert_eq!(key.stable_hash(), hash, "stable_hash drifted for `{tag}`");
            assert_eq!(
                request_seed(7, hash),
                seed,
                "request_seed drifted for `{tag}`"
            );
            assert_eq!(
                route_hash("sla-gbdt", m, &X, 1e-6),
                Some(route),
                "route_hash drifted for `{tag}`"
            );
            // The router folds the words itself; a built key agrees.
            let versionless = CacheKey::build("sla-gbdt", 0, m, &X, 1e-6).unwrap();
            assert_eq!(versionless.stable_hash(), route);
        }
    }

    #[test]
    fn custom_methods_share_the_identity_scheme() {
        let c = ExplainMethod::custom("online-sage", 32);
        assert_eq!(c.method_id(), method_id("online-sage"));
        assert_eq!(c.budget_word(), 32);
        assert_eq!(c.tag(), "custom");
        // A built-in variant and a Custom carrying its id are the same
        // request identity.
        let k = ExplainMethod::KernelShap { n_coalitions: 64 };
        let k_as_custom = ExplainMethod::Custom {
            id: method_id("kernel-shap"),
            budget: 64,
        };
        assert_eq!(k.hash_parts(), k_as_custom.hash_parts());
        assert_eq!(
            service_class_key(3, k),
            service_class_key(3, k_as_custom),
            "identity is the interned id, not the Rust variant"
        );
    }

    #[test]
    fn from_parts_round_trips_builtins_and_custom() {
        let methods = [
            ExplainMethod::TreeShap,
            ExplainMethod::KernelShap { n_coalitions: 64 },
            ExplainMethod::Lime { n_samples: 256 },
            ExplainMethod::SamplingShapley {
                n_permutations: 32,
                antithetic: true,
            },
            ExplainMethod::SamplingShapley {
                n_permutations: 32,
                antithetic: false,
            },
            ExplainMethod::ExactShapley,
            ExplainMethod::GroupedShapley,
            ExplainMethod::Permutation,
            ExplainMethod::Interactions,
            ExplainMethod::custom("online-sage", 9),
            ExplainMethod::Custom {
                id: 0x1234_5678_9abc_def0,
                budget: 7,
            },
        ];
        for m in methods {
            assert_eq!(ExplainMethod::from_parts(m.method_id(), m.budget_word()), m);
        }
        // A deterministic built-in with a budget word is not that built-in:
        // the pair stays a `Custom`, so the budget is not dropped.
        let c = ExplainMethod::Custom {
            id: method_id("tree-shap"),
            budget: 5,
        };
        assert_eq!(ExplainMethod::from_parts(c.method_id(), 5), c);
        assert_eq!(c.display_name(), "tree-shap");
        let unknown = ExplainMethod::Custom {
            id: 0xfeed,
            budget: 0,
        };
        assert_eq!(unknown.display_name(), "#000000000000feed");
    }

    proptest::proptest! {
        #[test]
        fn from_parts_keeps_every_identity(
            pick in 0usize..10,
            raw_id in 0u64..u64::MAX,
            small in 0u64..1024,
            big in 0u64..u64::MAX,
        ) {
            const BUILTINS: [u64; 8] = [
                ID_TREE_SHAP, ID_KERNEL_SHAP, ID_LIME, ID_SAMPLING_SHAPLEY,
                ID_EXACT_SHAPLEY, ID_GROUPED_SHAPLEY, ID_PERMUTATION, ID_INTERACTIONS,
            ];
            let id = BUILTINS.get(pick).copied().unwrap_or(raw_id);
            for budget in [0, 1, small, big, u64::MAX] {
                let m = ExplainMethod::from_parts(id, budget);
                proptest::prop_assert_eq!((m.method_id(), m.budget_word()), (id, budget));
            }
        }
    }

    #[test]
    fn service_class_keys_separate_every_method_variant() {
        let methods = [
            ExplainMethod::TreeShap,
            ExplainMethod::KernelShap { n_coalitions: 64 },
            ExplainMethod::Lime { n_samples: 256 },
            ExplainMethod::SamplingShapley {
                n_permutations: 32,
                antithetic: true,
            },
            ExplainMethod::ExactShapley,
            ExplainMethod::GroupedShapley,
            ExplainMethod::Permutation,
            ExplainMethod::Interactions,
            ExplainMethod::custom("online-sage", 16),
        ];
        let mut keys: Vec<u64> = methods.iter().map(|&m| service_class_key(3, m)).collect();
        assert!(keys.iter().all(|&k| k != 0), "zero marks an empty slot");
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(
            keys.len(),
            methods.len(),
            "every variant gets its own EWMA class"
        );
        assert_ne!(
            service_class_key(3, ExplainMethod::Permutation),
            service_class_key(4, ExplainMethod::Permutation),
            "model version is part of the class"
        );
    }

    #[test]
    fn seeds_depend_on_content_not_order() {
        assert_eq!(request_seed(7, 100), request_seed(7, 100));
        assert_ne!(request_seed(7, 100), request_seed(7, 101));
        assert_ne!(request_seed(7, 100), request_seed(8, 100));
    }

    #[test]
    fn lookup_fold_lanes_are_deterministic_and_independent() {
        let fold = |words: &[u64]| {
            let mut f = LookupFold::new();
            words.iter().for_each(|&w| f.word(w));
            f.finish()
        };
        let fp = fold(&[1, 2, 3]);
        assert_eq!(fp, fold(&[1, 2, 3]), "fixed constants: repeats run to run");
        assert_ne!(fp as u64, (fp >> 64) as u64, "two lanes, not one twice");
        for other in [fold(&[1, 2, 4]), fold(&[3, 2, 1]), fold(&[1, 2])] {
            assert_ne!(fp as u64, other as u64);
            assert_ne!((fp >> 64) as u64, (other >> 64) as u64);
        }
        // Byte strings are length-delimited.
        let bytes = |parts: &[&str]| {
            let mut f = LookupFold::new();
            parts.iter().for_each(|p| f.bytes(p.as_bytes()));
            f.finish()
        };
        assert_ne!(bytes(&["ab", "c"]), bytes(&["a", "bc"]));
        assert_ne!(bytes(&["model-a-long-id"]), bytes(&["model-a-long-ie"]));
        assert_ne!(bytes(&["m"]), bytes(&["m\0"]));
    }

    #[test]
    fn coarsened_cuts_sampling_budgets_only() {
        let coarse = |m: ExplainMethod| m.coarsened_with(DEFAULT_ANYTIME_DIVISOR);
        let (m, b) = coarse(ExplainMethod::KernelShap { n_coalitions: 512 }).unwrap();
        assert_eq!(m, ExplainMethod::KernelShap { n_coalitions: 64 });
        assert_eq!(b, 64);
        // Floor: already-small budgets have nothing worth cutting.
        assert!(coarse(ExplainMethod::KernelShap { n_coalitions: 8 }).is_none());
        let (m, b) = coarse(ExplainMethod::SamplingShapley {
            n_permutations: 32,
            antithetic: true,
        })
        .unwrap();
        assert_eq!(
            m,
            ExplainMethod::SamplingShapley {
                n_permutations: 4,
                antithetic: true
            },
            "antithetic pairing survives coarsening"
        );
        assert_eq!(b, 4);
        let (m, _) = coarse(ExplainMethod::Lime { n_samples: 1024 }).unwrap();
        assert_eq!(m, ExplainMethod::Lime { n_samples: 128 });
        // Deterministic methods have no sampling budget to degrade.
        assert!(coarse(ExplainMethod::TreeShap).is_none());
        assert!(coarse(ExplainMethod::ExactShapley).is_none());
        assert!(coarse(ExplainMethod::GroupedShapley).is_none());
        assert!(coarse(ExplainMethod::Permutation).is_none());
        assert!(coarse(ExplainMethod::Interactions).is_none());
        // Opaque custom budgets are never scaled by the serving layer.
        assert!(coarse(ExplainMethod::custom("online-sage", 64)).is_none());
    }

    #[test]
    fn coarsening_divisor_is_per_class_configuration() {
        let k = ExplainMethod::KernelShap { n_coalitions: 512 };
        let (m, b) = k.coarsened_with(4).unwrap();
        assert_eq!(m, ExplainMethod::KernelShap { n_coalitions: 128 });
        assert_eq!(b, 128);
        assert_eq!(DEFAULT_ANYTIME_DIVISOR, 8, "÷ 8 stays the default");
        // Divisor 1 (and 0, clamped to 1) means "never degrade this class".
        assert!(k.coarsened_with(1).is_none());
        assert!(k.coarsened_with(0).is_none());
        // Floors still apply under aggressive divisors.
        let (m, _) = k.coarsened_with(1024).unwrap();
        assert_eq!(m, ExplainMethod::KernelShap { n_coalitions: 8 });
        let s = ExplainMethod::SamplingShapley {
            n_permutations: 32,
            antithetic: true,
        };
        let (m, b) = s.coarsened_with(16).unwrap();
        assert_eq!(
            m,
            ExplainMethod::SamplingShapley {
                n_permutations: 2,
                antithetic: true
            }
        );
        assert_eq!(b, 2);
    }

    #[test]
    fn fidelity_parts_round_trip() {
        for f in [
            Fidelity::Exact,
            Fidelity::Quantized { max_abs_err: 1e-4 },
            Fidelity::Coarse { sample_budget: 64 },
            Fidelity::CoarseQuantized {
                sample_budget: 64,
                max_abs_err: 1e-4,
            },
        ] {
            assert_eq!(Fidelity::from_parts(f.sample_budget(), f.max_abs_err()), f);
        }
        assert!(Fidelity::Exact.is_exact());
        assert_eq!(Fidelity::Exact.grade(), 1);
        assert_eq!(Fidelity::Quantized { max_abs_err: 0.1 }.grade(), 1);
        assert_eq!(Fidelity::Coarse { sample_budget: 8 }.grade(), 0);
        assert_eq!(
            Fidelity::CoarseQuantized {
                sample_budget: 8,
                max_abs_err: 0.1
            }
            .grade(),
            0
        );
    }
}
