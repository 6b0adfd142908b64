//! The one router: shared-nothing shards behind a consistent-hash ring.
//!
//! [`Router`] is generic over a [`Shard`] and owns every cluster policy, so
//! the in-process [`ServeCluster`] (`Router<Engine>`) and the `nfv-net`
//! wire cluster (`Router<ShardConn>`) share one code — but a full shard of
//! the first spills ([`Router::start`] turns anytime off) where one of the
//! second answers a sampling request `Fidelity::Coarse`. Routing keys on
//! the request's cache key *minus the model version*, so private per-shard
//! caches need no invalidation protocol and a re-registered model keeps
//! its traffic in place. Every shard has the same seed and one history,
//! and explainer seeds derive from content only — so home shard, spill
//! shard and a lone engine agree to the bit.

use crate::cache::CacheKey;
use crate::engine::{Engine, ServeConfig};
use crate::error::{RejectReason, ServeError};
use crate::metrics::ServeStats;
use crate::registry::ServeModel;
use crate::request::{fnv1a_words, ExplainRequest, ExplainResponse};
use nfv_xai::prelude::Background;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Salt folded into every ring point so ring positions are unrelated to
/// the request hashes they partition.
const RING_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Virtual nodes per shard on the routing ring.
const VNODES: usize = 128;

/// A consistent-hash ring over shard ids. Each shard owns `vnodes`
/// pseudo-random points; a key belongs to the first point clockwise from
/// its hash, so adding or removing one shard remaps only the ~`1/N` of
/// keys that shard owned (pinned by the router's property tests).
#[derive(Debug, Clone)]
pub struct HashRing {
    /// (ring position, shard id), sorted by position.
    points: Vec<(u64, u32)>,
}

impl HashRing {
    /// Builds a ring of `shards × vnodes` points over shard ids `0..shards`.
    pub fn new(shards: usize, vnodes: usize) -> HashRing {
        let ids: Vec<u32> = (0..shards.max(1) as u32).collect();
        HashRing::from_ids(&ids, vnodes)
    }

    /// Builds a ring over *stable* shard ids: a shard's points depend only
    /// on its id, so join/leave leave every other shard's points in place.
    pub fn from_ids(ids: &[u32], vnodes: usize) -> HashRing {
        let vnodes = vnodes.max(1);
        let mut points: Vec<(u64, u32)> = ids
            .iter()
            .flat_map(|&s| {
                (0..vnodes).map(move |v| (fnv1a_words([RING_SALT, s as u64, v as u64]), s))
            })
            .collect();
        points.sort_unstable();
        HashRing { points }
    }

    /// The shard owning `hash`: first ring point at or after it, wrapping.
    pub fn shard_of(&self, hash: u64) -> usize {
        let i = self.points.partition_point(|&(p, _)| p < hash);
        self.points[i % self.points.len()].1 as usize
    }

    /// The next *distinct* shard clockwise from `hash`'s owner — the spill
    /// target. `None` on a one-shard ring.
    pub fn next_shard(&self, hash: u64, exclude: usize) -> Option<usize> {
        let start = self.points.partition_point(|&(p, _)| p < hash);
        let n = self.points.len();
        (0..n)
            .map(|i| self.points[(start + i) % n].1 as usize)
            .find(|&s| s != exclude)
    }

    /// Number of points on the ring.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the ring has no points (unreachable by construction).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
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
    /// Forgets a model (a joiner's replay of a deregistration). Only the
    /// in-process cluster deregisters — the wire has no such message.
    fn deregister(&self, _model_id: &str) {}
}

/// One model registration: sent to every shard, logged for joiners.
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

/// One step of the history a joiner replays.
enum Logged {
    Registered(Registration, u64),
    Deregistered(String),
}

/// Why the router itself refused an operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Refusal {
    /// A router needs at least one shard.
    NoShards,
    /// `leave` named an id that is not a member.
    UnknownShard(u32),
    /// `leave` of the last member: drain the cluster instead.
    LastShard,
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
    /// Retries actually sent to a ring successor.
    pub spills: u64,
    /// Shard calls that failed as transport faults.
    pub faults: u64,
}

/// Members in id order and the ring over their ids: swapped together.
struct Members<S> {
    shards: Vec<(u32, Arc<S>)>,
    ring: HashRing,
}

impl<S> Members<S> {
    fn new(shards: Vec<(u32, Arc<S>)>) -> Arc<Members<S>> {
        let ids: Vec<u32> = shards.iter().map(|&(id, _)| id).collect();
        let ring = HashRing::from_ids(&ids, VNODES);
        Arc::new(Members { shards, ring })
    }

    fn position(&self, id: u32) -> Option<usize> {
        self.shards.iter().position(|&(s, _)| s == id)
    }

    /// The shard the ring named (members and ring are swapped together).
    fn ringed(&self, id: usize) -> &S {
        &self.shards[self.position(id as u32).expect("a member")].1
    }
}

/// Shards behind a consistent-hash ring: placement, ordered registration
/// with a replay log, spill-once, membership and stats, for any transport.
pub struct Router<S: Shard> {
    grid: f64,
    members: RwLock<Arc<Members<S>>>,
    /// Every registration with its version, and every deregistration. The
    /// lock serializes each fan-out and join replay: it orders history.
    log: Mutex<Vec<Logged>>,
    next_id: AtomicU32,
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
        let n = shards.len() as u32;
        let shards = (0..n).zip(shards.into_iter().map(Arc::new)).collect();
        Ok(Router {
            grid,
            members: RwLock::new(Members::new(shards)),
            log: Mutex::new(Vec::new()),
            next_id: AtomicU32::new(n),
            spills: AtomicU64::new(0),
            faults: AtomicU64::new(0),
        })
    }

    fn members(&self) -> Arc<Members<S>> {
        Arc::clone(&self.members.read())
    }

    /// Registers (or replaces) a model on every shard, in id order, and
    /// logs it for joiners. Registrations are serialized, so a shard that
    /// assigns another version is refused ([`Refusal::VersionMismatch`]);
    /// one that left mid-fan-out is skipped (drained, it needs no history).
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
        let mut log = self.log.lock();
        let mut version = None;
        for (id, shard) in &self.members().shards {
            match register_on(*id, &**shard, &registration, version) {
                Ok(assigned) => version = Some(assigned),
                Err(e) if S::classify(&e) == ErrorClass::Fault && self.shard(*id).is_none() => {}
                Err(e) => return Err(e),
            }
        }
        // Joins wait for the log and the last member never leaves.
        let version = version.expect("a member stayed and answered");
        log.push(Logged::Registered(registration, version));
        Ok(version)
    }

    /// Sends a request to its home shard, and once to the ring successor
    /// on a queue-full reject or a fault. No lock is held across a call.
    pub fn explain(&self, req: &ExplainRequest) -> Result<ExplainResponse, S::Error> {
        let members = self.members();
        let Some(hash) = route_hash(&req.model_id, req.method, &req.features, self.grid) else {
            return self.call(&members.shards[0].1, req);
        };
        let home = members.ring.shard_of(hash);
        match self.call(members.ringed(home), req) {
            Err(e) if S::classify(&e) != ErrorClass::Final => {
                let Some(next) = members.ring.next_shard(hash, home) else {
                    return Err(e);
                };
                self.spills.fetch_add(1, Ordering::Relaxed);
                self.call(members.ringed(next), req)
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

    /// Adds a shard: replays the log into it (versions must match), then
    /// puts it on the ring, so it owns keys only once it can answer them.
    pub fn join(&self, shard: S) -> Result<u32, S::Error> {
        let log = self.log.lock();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        for logged in log.iter() {
            match logged {
                Logged::Registered(r, v) => _ = register_on(id, &shard, r, Some(*v))?,
                Logged::Deregistered(model_id) => shard.deregister(model_id),
            }
        }
        let mut members = self.members.write();
        let joined = (id, Arc::new(shard));
        *members = Members::new(members.shards.iter().cloned().chain([joined]).collect());
        Ok(id)
    }

    /// Removes a shard: off the ring first (no new request can route to
    /// it), then drained. Returns its completed count (0 when it is
    /// already gone). The last shard may not leave.
    pub fn leave(&self, id: u32) -> Result<u64, S::Error> {
        let shard = {
            let mut members = self.members.write();
            let i = members.position(id).ok_or(Refusal::UnknownShard(id))?;
            if members.shards.len() == 1 {
                return Err(Refusal::LastShard.into());
            }
            let mut shards = members.shards.clone();
            let (_, shard) = shards.remove(i);
            *members = Members::new(shards);
            shard
        };
        shard.drain()
    }

    /// Stable ids of the current members, in id order.
    pub fn shard_ids(&self) -> Vec<u32> {
        self.members().shards.iter().map(|&(id, _)| id).collect()
    }

    /// The member with stable id `id`.
    pub fn shard(&self, id: u32) -> Option<Arc<S>> {
        let members = self.members();
        Some(Arc::clone(&members.shards[members.position(id)?].1))
    }

    /// Drains every shard in id order; returns total completed requests.
    pub fn drain_all(self) -> Result<u64, S::Error> {
        self.members().shards.iter().map(|(_, s)| s.drain()).sum()
    }

    /// Point-in-time cluster statistics.
    pub fn stats(&self) -> ClusterStats {
        let members = self.members();
        let snapshot = |(id, s): &(u32, Arc<S>)| (*id, s.stats());
        let per_shard: Vec<_> = members.shards.iter().map(snapshot).collect();
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

    fn deregister(&self, model_id: &str) {
        self.registry().deregister(model_id);
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

    /// Removes `id` from every shard; true when any shard held it. Logged,
    /// so a later joiner replays the removal after the registrations.
    pub fn deregister(&self, id: &str) -> bool {
        let mut log = self.log.lock();
        log.push(Logged::Deregistered(id.to_string()));
        let deregister = |any, (_, s): &(u32, Arc<Engine>)| s.registry().deregister(id) | any;
        self.members().shards.iter().fold(false, deregister)
    }

    /// Eagerly drops cached explanations of `model_id` on every shard.
    pub fn invalidate_model(&self, model_id: &str) {
        for (_, shard) in &self.members().shards {
            shard.invalidate_model(model_id);
        }
    }

    /// Drains every shard and joins all workers (a shard still held through
    /// [`Router::shard`] joins when that handle drops).
    pub fn shutdown(self) {
        let _ = self.drain_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_deterministic_and_covers_all_shards() {
        let a = HashRing::new(4, 128);
        let b = HashRing::new(4, 128);
        let mut seen = [false; 4];
        for k in 0..10_000u64 {
            let h = fnv1a_words([k]);
            assert_eq!(a.shard_of(h), b.shard_of(h));
            seen[a.shard_of(h)] = true;
        }
        assert!(seen.iter().all(|&s| s), "every shard owns some keys");
        assert_eq!(a.len(), 4 * 128);
        assert!(!a.is_empty());
    }

    #[test]
    fn stable_id_ring_keeps_surviving_points_fixed() {
        // Removing id 2 from {0,1,2,3} must only move keys that 2 owned.
        let full = HashRing::from_ids(&[0, 1, 2, 3], 64);
        let without = HashRing::from_ids(&[0, 1, 3], 64);
        for k in 0..20_000u64 {
            let h = fnv1a_words([k, 3]);
            let before = full.shard_of(h);
            let after = without.shard_of(h);
            if before != 2 {
                assert_eq!(before, after, "keys of surviving shards must not move");
            } else {
                assert_ne!(after, 2, "orphaned keys land on a survivor");
            }
        }
        // An index ring is the same thing over 0..n.
        let a = HashRing::new(4, 64);
        let b = HashRing::from_ids(&[0, 1, 2, 3], 64);
        for k in 0..1_000u64 {
            let h = fnv1a_words([k]);
            assert_eq!(a.shard_of(h), b.shard_of(h));
        }
    }

    #[test]
    fn next_shard_differs_from_home_and_is_stable() {
        let ring = HashRing::new(4, 64);
        for k in 0..1_000u64 {
            let h = fnv1a_words([k, 7]);
            let home = ring.shard_of(h);
            let next = ring.next_shard(h, home).unwrap();
            assert_ne!(next, home);
            assert_eq!(next, ring.next_shard(h, home).unwrap());
        }
        let one = HashRing::new(1, 64);
        assert_eq!(one.next_shard(42, 0), None, "nowhere to spill on 1 shard");
    }
}
