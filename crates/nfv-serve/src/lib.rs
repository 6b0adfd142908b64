//! # nfv-serve — online explanation serving
//!
//! The paper's explainers answer *one* question well; an NFV control plane
//! asks thousands per second, with latency contracts. This crate is the
//! serving layer between the two, split into a transport-agnostic
//! [`Engine`] and a shared-nothing [`cluster`] of them:
//!
//! - a **model registry** (versioned, hot-swappable, `Arc`-shared) that
//!   resolves every request method to a `Box<dyn Explainer>` — workers
//!   contain zero per-method dispatch, so all of the `nfv-xai` trait
//!   registry's methods (TreeSHAP, KernelSHAP, LIME, sampling / exact /
//!   grouped Shapley, per-instance permutation) serve through one path,
//! - a **two-tier sharded LRU cache** keyed by (model id, version,
//!   method+budget, quantized input) — identical questions are answered
//!   once. A small hot tier serves exact f64 attributions; evictions
//!   demote into a large cold tier of i16-quantized entries (~4× the
//!   entries per byte) whose hits carry a typed
//!   [`Fidelity::Quantized`](request::Fidelity) error bound,
//! - **anytime explanations**: under queue-full pressure, sampling
//!   methods answer immediately with a coarse (reduced-budget)
//!   attribution tagged [`Fidelity::Coarse`](request::Fidelity), and a
//!   full-budget worker job that answers nobody upgrades the cache entry
//!   in place (see [`ServeConfig::anytime`]),
//! - a **bounded MPMC queue** with admission control: when the queue is
//!   full or a deadline is infeasible the request is *rejected with a
//!   reason*, never silently delayed (backpressure, not buffer bloat),
//! - a **worker pool** with one pipeline: a worker takes the backlog it
//!   finds, plans every request of a model — methods and budgets mixed, a
//!   lone request included — into its persistent shared block, evaluates
//!   the block with one `predict_block` call against the registry's packed
//!   SoA tree engine and finishes each plan; a request whose plan refuses
//!   (TreeSHAP, an exact enumeration past the workspace chunk) runs alone.
//!   Where a request's rows were stacked never changes its bits, and
//!   steady-state serving does not allocate on the hot path,
//! - **single-flight cache fills**: concurrent identical misses elect one
//!   leader to compute; followers park on its flight and are answered
//!   with its result instead of duplicating the evaluation,
//! - **a miss path that never waits**: [`Engine::submit`] answers a hit
//!   or a reject at once and hands a miss to the workers with a [`Reply`]
//!   sink; [`Engine::explain`] is the same path plus one wait. Only the
//!   anytime coarse answer (its factory and explainer) runs there,
//! - **metrics**: queue wait, batch size, cache hit rate, p50/p99, and
//!   per-(model-version, method) service-time EWMAs feeding admission
//!   control, all serializable for scraping — per shard and rolled up
//!   cluster-wide,
//! - a **[`cluster`] module**: the one router, generic over a shard —
//!   content-keyed consistent-hash placement, ordered registration
//!   fan-out, spill-once to the next ring shard, join/leave — with N
//!   in-process engines as [`cluster::ServeCluster`] (the `nfv-net` wire
//!   cluster is the same router over connections, with anytime on). Shards
//!   share nothing at runtime; the router is the only cross-shard component.
//!
//! Stochastic explainers are seeded from request *content* (never arrival
//! order), so results are bit-for-bit reproducible across runs, thread
//! counts, batch compositions — and cluster shards.
//!
//! ```
//! use nfv_serve::prelude::*;
//! use nfv_data::prelude::*;
//! use nfv_ml::prelude::*;
//! use nfv_xai::prelude::*;
//! use std::time::Duration;
//!
//! let synth = friedman1(200, 5, 0.1, 7).unwrap();
//! let model = Gbdt::fit(&synth.data, &GbdtParams { n_rounds: 10, ..Default::default() }, 0).unwrap();
//! let bg = Background::from_dataset(&synth.data, 16, 1).unwrap();
//!
//! let engine = ServeEngine::start(ServeConfig::default());
//! engine.registry().register("sla", ServeModel::Gbdt(model), synth.data.names.clone(), bg).unwrap();
//!
//! let resp = engine.explain(ExplainRequest {
//!     model_id: "sla".into(),
//!     features: synth.data.row(0).to_vec(),
//!     method: ExplainMethod::TreeShap,
//!     budget: Duration::from_millis(100),
//! }).unwrap();
//! assert!(resp.attribution.efficiency_gap().abs() < 1e-8);
//! // The identical question again is a cache hit.
//! let again = engine.explain(ExplainRequest {
//!     model_id: "sla".into(),
//!     features: synth.data.row(0).to_vec(),
//!     method: ExplainMethod::TreeShap,
//!     budget: Duration::from_millis(100),
//! }).unwrap();
//! assert!(again.cache_hit);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cluster;
pub mod engine;
pub mod error;
pub mod metrics;
mod queue;
pub mod registry;
pub mod request;
mod worker;

pub use engine::{Engine, FusionPolicy, Reply, ServeConfig};

/// Pre-split name of [`Engine`], kept as the primary public alias.
pub use engine::Engine as ServeEngine;

/// One-stop imports.
pub mod prelude {
    pub use crate::cache::CacheUsage;
    pub use crate::cluster::{
        route_hash, ClusterConfig, ClusterStats, HashRing, Refusal, Router, ServeCluster,
    };
    pub use crate::error::{RejectReason, ServeError};
    pub use crate::metrics::ServeStats;
    pub use crate::registry::{ModelEntry, ModelRegistry, ServeModel};
    pub use crate::request::{
        ExplainMethod, ExplainRequest, ExplainResponse, Fidelity, DEFAULT_ANYTIME_DIVISOR,
    };
    pub use crate::{Engine, FusionPolicy, Reply, ServeConfig, ServeEngine};
}
