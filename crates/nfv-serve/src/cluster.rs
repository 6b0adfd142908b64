//! The one router: a fixed list of shared-nothing shards, placed by hash.
//!
//! [`Router`] is generic over a [`Shard`] and owns every cluster policy, so
//! the in-process [`ServeCluster`] (`Router<Engine>`) and the `nfv-net`
//! wire cluster (`Router<ShardConn>`) share one code — but a full shard of
//! the first spills ([`Router::start`] turns anytime off) where one of the
//! second answers a sampling request `Fidelity::Coarse`. A cluster is the
//! shards it starts with, ids `0..n`: no shard joins or leaves. Routing
//! keys on the request's cache key *minus the model version*, so private
//! per-shard caches need no invalidation protocol and a re-registered model
//! keeps its traffic in place. Every shard has the same seed and one
//! history, and explainer seeds derive from content only — so home shard,
//! spill shard and a lone engine agree to the bit.

use crate::cache::CacheKey;
use crate::engine::{Engine, ServeConfig};
use crate::error::{RejectReason, ServeError};
use crate::metrics::ServeStats;
use crate::registry::ServeModel;
use crate::request::{ExplainRequest, ExplainResponse};
use nfv_xai::prelude::Background;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The home shard of a route hash among `n` shards, and the shard it
/// spills to (`None` when `n == 1`). Multiply-shift: the hash scales onto
/// `0..n` by its top bits, so each shard owns an equal slice of the hash
/// range; the spill target is the next id.
pub fn placement(hash: u64, n: usize) -> (usize, Option<usize>) {
    let home = ((hash as u128 * n as u128) >> 64) as usize;
    (home, (n > 1).then(|| (home + 1) % n))
}

/// The placement hash of a request: `CacheKey::build(model_id, 0, ..)`'s
/// `stable_hash()` bit for bit, without building a key. `None` when the
/// features are unroutable: the first shard's engine rejects those.
pub fn route_hash(
    model_id: &str,
    method: crate::request::ExplainMethod,
    features: &[f64],
    grid: f64,
) -> Option<u64> {
    CacheKey::stable_hash_of(model_id, 0, method, features, grid)
}

/// How the router treats a failed shard call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// The shard could not be reached: counted, retried on the successor.
    Fault,
    /// The shard shed load (`QueueFull`): retried once on the successor.
    QueueFull,
    /// The engine's verdict or a [`Refusal`]: returned as is.
    Final,
}

/// What a [`Router`] needs from one shard.
pub trait Shard: Send + Sync {
    /// The shard's error; it also carries the router's refusals.
    type Error: From<Refusal>;
    /// Explains one request.
    fn explain(&self, request: &ExplainRequest) -> Result<ExplainResponse, Self::Error>;
    /// Registers (or replaces) a model, returning the version assigned.
    fn register(&self, registration: &Registration) -> Result<u64, Self::Error>;
    /// A stats snapshot; `None` when the shard cannot be reached.
    fn stats(&self) -> Option<ServeStats>;
    /// Stops the shard taking work; returns its completed-request count,
    /// 0 for a shard that is already gone.
    fn drain(&self) -> Result<u64, Self::Error>;
    /// Sorts an error into the router's retry policy.
    fn classify(error: &Self::Error) -> ErrorClass;
}

/// One model registration: sent to every shard, in id order.
#[derive(Debug, Clone)]
pub struct Registration {
    /// The model's id.
    pub model_id: String,
    /// The model.
    pub model: ServeModel,
    /// Feature names, aligned with the model's inputs.
    pub feature_names: Vec<String>,
    /// The background the explainers marginalize over.
    pub background: Background,
}

/// Why the router itself refused an operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Refusal {
    /// A router needs at least one shard.
    NoShards,
    /// A shard assigned another version: histories diverged.
    VersionMismatch {
        /// The shard that disagreed.
        shard: u32,
        /// The model being registered.
        model_id: String,
        /// The version that shard assigned.
        assigned: u64,
        /// The version the cluster expected.
        expected: u64,
    },
}

/// Cluster-wide statistics: the per-shard snapshots plus their rollup.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ClusterStats {
    /// Reachable shards rolled into one view ([`ServeStats::aggregate`]).
    pub cluster: ServeStats,
    /// `(shard id, snapshot)` in id order; `None` when unreachable.
    pub per_shard: Vec<(u32, Option<ServeStats>)>,
    /// Retries actually sent to a spill target.
    pub spills: u64,
    /// Shard calls that failed as transport faults.
    pub faults: u64,
}

/// A fixed list of shards: placement, ordered registration, spill-once
/// and stats, for any transport. A dead shard stays in the list, and the
/// keys it is home to spill on every request.
pub struct Router<S: Shard> {
    grid: f64,
    /// Shard `i` has id `i`.
    shards: Vec<Arc<S>>,
    /// Held across each fan-out, so every shard sees one history.
    registering: Mutex<()>,
    spills: AtomicU64,
    faults: AtomicU64,
}

impl<S: Shard> Router<S> {
    /// A router over `shards`, given ids `0..n`. `grid` must be the shards'
    /// quantization grid, so route hashes agree with their cache keys.
    pub fn new(shards: Vec<S>, grid: f64) -> Result<Router<S>, S::Error> {
        if shards.is_empty() {
            return Err(Refusal::NoShards.into());
        }
        Ok(Router {
            grid,
            shards: shards.into_iter().map(Arc::new).collect(),
            registering: Mutex::new(()),
            spills: AtomicU64::new(0),
            faults: AtomicU64::new(0),
        })
    }

    /// Registers (or replaces) a model on every shard, in id order.
    /// Registrations are serialized, so a shard that assigns another
    /// version is refused ([`Refusal::VersionMismatch`]).
    pub fn register(
        &self,
        model_id: &str,
        model: ServeModel,
        feature_names: Vec<String>,
        background: Background,
    ) -> Result<u64, S::Error> {
        let registration = Registration {
            model_id: model_id.to_string(),
            model,
            feature_names,
            background,
        };
        let _order = self.registering.lock();
        let mut version = None;
        for (id, shard) in self.shards.iter().enumerate() {
            version = Some(register_on(id as u32, &**shard, &registration, version)?);
        }
        Ok(version.expect("a router has a shard"))
    }

    /// Sends a request to its home shard, and once to the next shard on a
    /// queue-full reject or a fault. No lock is held across a call.
    pub fn explain(&self, req: &ExplainRequest) -> Result<ExplainResponse, S::Error> {
        let Some(hash) = route_hash(&req.model_id, req.method, &req.features, self.grid) else {
            return self.call(&self.shards[0], req);
        };
        let (home, next) = placement(hash, self.shards.len());
        match self.call(&self.shards[home], req) {
            Err(e) if S::classify(&e) != ErrorClass::Final => {
                let Some(next) = next else {
                    return Err(e);
                };
                self.spills.fetch_add(1, Ordering::Relaxed);
                self.call(&self.shards[next], req)
            }
            outcome => outcome,
        }
    }

    fn call(&self, shard: &S, request: &ExplainRequest) -> Result<ExplainResponse, S::Error> {
        shard.explain(request).inspect_err(|e| {
            if S::classify(e) == ErrorClass::Fault {
                self.faults.fetch_add(1, Ordering::Relaxed);
            }
        })
    }

    /// The shard with id `id`.
    pub fn shard(&self, id: u32) -> Option<Arc<S>> {
        self.shards.get(id as usize).cloned()
    }

    /// Drains every shard in id order; returns total completed requests.
    pub fn drain_all(self) -> Result<u64, S::Error> {
        self.shards.iter().map(|s| s.drain()).sum()
    }

    /// Point-in-time cluster statistics.
    pub fn stats(&self) -> ClusterStats {
        let snapshot = |(id, s): (usize, &Arc<S>)| (id as u32, s.stats());
        let per_shard: Vec<_> = self.shards.iter().enumerate().map(snapshot).collect();
        let live: Vec<ServeStats> = per_shard.iter().filter_map(|(_, s)| s.clone()).collect();
        ClusterStats {
            cluster: ServeStats::aggregate(&live),
            per_shard,
            spills: self.spills.load(Ordering::Relaxed),
            faults: self.faults.load(Ordering::Relaxed),
        }
    }
}

/// Registers on one shard, refusing any version but `expected`.
fn register_on<S: Shard>(
    id: u32,
    shard: &S,
    r: &Registration,
    expected: Option<u64>,
) -> Result<u64, S::Error> {
    let assigned = shard.register(r)?;
    match expected {
        Some(expected) if expected != assigned => Err(Refusal::VersionMismatch {
            shard: id,
            model_id: r.model_id.clone(),
            assigned,
            expected,
        }
        .into()),
        _ => Ok(assigned),
    }
}

/// Cluster configuration: N identical in-process shards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Number of in-process engine shards.
    pub shards: usize,
    /// Configuration applied to every shard (notably: all shards share
    /// one seed, which is what keeps spilled requests bit-identical).
    pub shard: ServeConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 4,
            shard: ServeConfig::default(),
        }
    }
}

/// The in-process cluster: N shared-nothing [`Engine`]s behind the router.
/// Register models through the cluster, not a shard: the ordered fan-out
/// is what keeps versions — so cache keys and seeds — identical.
pub type ServeCluster = Router<Engine>;

impl From<Refusal> for ServeError {
    fn from(r: Refusal) -> ServeError {
        ServeError::Refused(r)
    }
}

/// An engine never faults; `drain` reports the completed count, and the
/// engine finishes its backlog and joins its workers as its last handle drops.
impl Shard for Engine {
    type Error = ServeError;

    /// A hit is answered from the borrowed request; only a miss, which the
    /// engine's queue must own, clones it.
    fn explain(&self, request: &ExplainRequest) -> Result<ExplainResponse, ServeError> {
        match self.cached(request) {
            Ok(hit) => Ok(hit),
            Err(miss) => self.explain_miss(request.clone(), miss),
        }
    }

    fn register(&self, r: &Registration) -> Result<u64, ServeError> {
        let r = r.clone();
        self.registry()
            .register(&r.model_id, r.model, r.feature_names, r.background)
    }

    fn stats(&self) -> Option<ServeStats> {
        Some(Engine::stats(self))
    }

    fn drain(&self) -> Result<u64, ServeError> {
        Ok(Engine::stats(self).completed)
    }

    fn classify(error: &ServeError) -> ErrorClass {
        match error {
            ServeError::Rejected(RejectReason::QueueFull { .. }) => ErrorClass::QueueFull,
            _ => ErrorClass::Final,
        }
    }
}

impl Router<Engine> {
    /// Starts the shards with anytime degradation **disabled**: the
    /// cluster's overload policy is spill-to-neighbor, which needs a full
    /// shard to surface `QueueFull` (degrading is the lone engine's).
    pub fn start(config: ClusterConfig) -> ServeCluster {
        let (n, mut shard_cfg) = (config.shards.max(1), config.shard);
        shard_cfg.anytime = false;
        let shards = (0..n).map(|_| Engine::start(shard_cfg)).collect();
        Router::new(shards, shard_cfg.quantization_grid).expect("at least one shard")
    }

    /// Removes `id` from every shard; true when any shard held it. Held
    /// in order with registrations, so no shard sees them the other way.
    pub fn deregister(&self, id: &str) -> bool {
        let _order = self.registering.lock();
        let deregister = |any, shard: &Arc<Engine>| shard.registry().deregister(id) | any;
        self.shards.iter().fold(false, deregister)
    }

    /// Eagerly drops cached explanations of `model_id` on every shard.
    pub fn invalidate_model(&self, model_id: &str) {
        for shard in &self.shards {
            shard.invalidate_model(model_id);
        }
    }

    /// Drains every shard and joins all workers (a shard still held through
    /// [`Router::shard`] joins when that handle drops).
    pub fn shutdown(self) {
        let _ = self.drain_all();
    }
}
