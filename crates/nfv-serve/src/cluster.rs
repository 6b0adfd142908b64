//! A shared-nothing, sharded serving cluster: N in-process [`Engine`]s
//! behind a consistent-hash router.
//!
//! ## Why shard-per-request-content
//!
//! The router keys on the request's *cache key minus the model version*
//! (model id, method + budget, quantized features). That choice does two
//! things at once:
//!
//! 1. **Cache locality** — identical questions always land on the shard
//!    that answered them last time, so the cluster-wide hit rate equals a
//!    single engine's despite each shard owning a private cache. No
//!    cross-shard invalidation protocol exists because none is needed.
//! 2. **Shared-nothing scaling** — shards never synchronize on the hot
//!    path: each owns its registry, cache, admission queue, and workers
//!    outright. The only cross-shard interaction is the (rare, explicitly
//!    counted) spill of a request whose home shard's queue is full.
//!
//! The version is deliberately *excluded* from the route hash: routing
//! must not move a model's traffic to a different shard every time the
//! model is re-registered, or each hot-swap would cold-start every cache.
//!
//! ## Determinism across shards
//!
//! Every shard gets the same engine seed, and [`ServeCluster::register`]
//! fans models out to all shards in the same order, so all shards assign
//! identical versions. Per-request explainer seeds derive from (engine
//! seed, content hash) only — so a request served by its home shard, a
//! spill shard, or a standalone engine produces bit-identical attributions
//! (enforced by the cluster bit-identity tests).

use crate::cache::CacheKey;
use crate::engine::{Engine, ServeConfig};
use crate::error::{RejectReason, ServeError};
use crate::metrics::ServeStats;
use crate::registry::ServeModel;
use crate::request::{fnv1a_words, ExplainRequest, ExplainResponse};
use nfv_xai::prelude::Background;
use std::sync::atomic::{AtomicU64, Ordering};

/// Salt folded into every ring point so ring positions are unrelated to
/// the request hashes they partition.
const RING_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// A consistent-hash ring over shard indices. Each shard owns `vnodes`
/// pseudo-random points; a key belongs to the first point clockwise from
/// its hash. Adding or removing one shard therefore remaps only the keys
/// in the arcs that shard's points owned — about `1/N` of the space —
/// instead of rehashing everything (the property the router's property
/// tests pin down).
#[derive(Debug, Clone)]
pub struct HashRing {
    /// (ring position, shard index), sorted by position.
    points: Vec<(u64, u32)>,
}

impl HashRing {
    /// Builds a ring of `shards × vnodes` points over shard indices
    /// `0..shards` (the in-process cluster's identity space).
    pub fn new(shards: usize, vnodes: usize) -> HashRing {
        let shards = shards.max(1);
        let ids: Vec<u32> = (0..shards as u32).collect();
        HashRing::from_ids(&ids, vnodes)
    }

    /// Builds a ring over explicit *stable* shard ids. A shard's points
    /// depend only on its own id, so adding or removing one id leaves
    /// every other shard's points untouched — the bounded-remap property
    /// graceful join/leave rides on (the `nfv-net` router keys its ring on
    /// connection ids that survive other shards joining and leaving).
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
        let i = if i == self.points.len() { 0 } else { i };
        self.points[i].1 as usize
    }

    /// The next *distinct* shard clockwise from `hash`'s owner — the spill
    /// target when the owner's queue is full. `None` on a one-shard ring.
    pub fn next_shard(&self, hash: u64, exclude: usize) -> Option<usize> {
        let start = self.points.partition_point(|&(p, _)| p < hash);
        let n = self.points.len();
        for i in 0..n {
            let (_, s) = self.points[(start + i) % n];
            if s as usize != exclude {
                return Some(s as usize);
            }
        }
        None
    }

    /// The first `r` *distinct* shards clockwise from `hash` — the read
    /// fan-out candidates when a hot model is replicated. The first entry
    /// is always [`HashRing::shard_of`]; answers are bit-identical on
    /// every shard, so serving a read from any candidate is safe.
    pub fn shards_for(&self, hash: u64, r: usize) -> Vec<usize> {
        let start = self.points.partition_point(|&(p, _)| p < hash);
        let n = self.points.len();
        let mut out = Vec::with_capacity(r.min(4));
        for i in 0..n {
            let (_, s) = self.points[(start + i) % n];
            if !out.contains(&(s as usize)) {
                out.push(s as usize);
                if out.len() >= r.max(1) {
                    break;
                }
            }
        }
        out
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

/// The placement hash of a request: its cache key with the model version
/// zeroed out, so the same question routes to the same shard across model
/// hot-swaps. `None` when the features are unroutable (non-finite or
/// outside the quantization range) — callers send those to any shard,
/// whose engine rejects them with the proper reason.
///
/// This is the **single** placement function: the in-process
/// [`ServeCluster`] and the `nfv-net` wire router both call it, so a key's
/// home shard is the same on either transport. The versionless words go
/// straight through the key quantizer — no key is built, nothing is
/// allocated — and the value is `CacheKey::build(model_id, 0, ..)`'s
/// `stable_hash()` bit for bit.
pub fn route_hash(
    model_id: &str,
    method: crate::request::ExplainMethod,
    features: &[f64],
    grid: f64,
) -> Option<u64> {
    CacheKey::stable_hash_of(model_id, 0, method, features, grid)
}

/// Cluster configuration: N identical shards plus routing policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Number of in-process engine shards.
    pub shards: usize,
    /// Configuration applied to every shard (notably: all shards share
    /// one seed, which is what keeps spilled requests bit-identical).
    pub shard: ServeConfig,
    /// Retry a queue-full rejection once on the next ring shard instead of
    /// failing it. Trades a cold cache + an extra queue for availability.
    pub spill: bool,
    /// Virtual nodes per shard on the routing ring (more = smoother key
    /// balance, linearly larger ring).
    pub vnodes: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 4,
            shard: ServeConfig::default(),
            spill: true,
            vnodes: 128,
        }
    }
}

/// Cluster-wide statistics: the per-shard snapshots plus their rollup.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ClusterStats {
    /// All shards rolled into one view (see [`ServeStats::aggregate`]).
    pub cluster: ServeStats,
    /// Per-shard snapshots, indexed by shard.
    pub per_shard: Vec<ServeStats>,
    /// Requests retried on a neighbour shard after a queue-full rejection.
    pub spills: u64,
}

/// N shared-nothing [`Engine`] shards behind a consistent-hash router.
///
/// Register models **through the cluster**, not through individual
/// shards: registration fans out to every shard in the same order, which
/// is what keeps versions — and therefore cache keys and seeds —
/// identical everywhere.
pub struct ServeCluster {
    shards: Vec<Engine>,
    ring: HashRing,
    grid: f64,
    spill: bool,
    spills: AtomicU64,
}

impl ServeCluster {
    /// Starts every shard's worker pool and returns a ready cluster.
    ///
    /// Shard engines run with anytime degradation **disabled** regardless
    /// of the shard config: the cluster's own overload policy is
    /// spill-to-neighbor, which requires a full shard to surface
    /// `QueueFull` honestly. Degrading is the single-engine fallback for
    /// when there is no neighbor to spill to.
    pub fn start(config: ClusterConfig) -> ServeCluster {
        let n = config.shards.max(1);
        let mut shard_cfg = config.shard;
        shard_cfg.anytime.enabled = false;
        let shards = (0..n).map(|_| Engine::start(shard_cfg)).collect();
        ServeCluster {
            shards,
            ring: HashRing::new(n, config.vnodes),
            grid: config.shard.quantization_grid,
            spill: config.spill,
            spills: AtomicU64::new(0),
        }
    }

    /// Registers (or replaces) `id` on every shard, returning the version
    /// they all assigned. Fan-out is sequential and in shard order, so
    /// identical registration sequences yield identical versions on every
    /// shard.
    pub fn register(
        &self,
        id: &str,
        model: ServeModel,
        feature_names: Vec<String>,
        background: Background,
    ) -> Result<u64, ServeError> {
        let mut version = 0;
        for shard in &self.shards {
            version = shard.registry().register(
                id,
                model.clone(),
                feature_names.clone(),
                background.clone(),
            )?;
        }
        Ok(version)
    }

    /// Removes `id` from every shard; true when any shard held it.
    pub fn deregister(&self, id: &str) -> bool {
        let mut any = false;
        for shard in &self.shards {
            any |= shard.registry().deregister(id);
        }
        any
    }

    /// Eagerly drops cached explanations of `model_id` on every shard.
    pub fn invalidate_model(&self, model_id: &str) {
        for shard in &self.shards {
            shard.invalidate_model(model_id);
        }
    }

    /// Routes one request to its home shard and explains it there,
    /// spilling to the next ring shard once if the home queue is full and
    /// spill is enabled.
    pub fn explain(&self, request: ExplainRequest) -> Result<ExplainResponse, ServeError> {
        // Route on the versionless cache key: same question → same shard,
        // across model hot-swaps. Unroutable requests (non-finite
        // features) go to shard 0, whose engine rejects them with the
        // proper reason.
        let hash = route_hash(
            &request.model_id,
            request.method,
            &request.features,
            self.grid,
        );
        let Some(hash) = hash else {
            return self.shards[0].explain(request);
        };
        let home = self.ring.shard_of(hash);
        let retry = if self.spill && self.shards.len() > 1 {
            Some(request.clone())
        } else {
            None
        };
        match self.shards[home].explain(request) {
            Err(ServeError::Rejected(RejectReason::QueueFull { .. })) if retry.is_some() => {
                let request = retry.expect("checked is_some above");
                let next = self
                    .ring
                    .next_shard(hash, home)
                    .expect("spill requires > 1 shard");
                self.spills.fetch_add(1, Ordering::Relaxed);
                self.shards[next].explain(request)
            }
            outcome => outcome,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Direct access to shard `i` (stats, cache inspection, tests).
    pub fn shard(&self, i: usize) -> &Engine {
        &self.shards[i]
    }

    /// Entries cached across all shards.
    pub fn cache_len(&self) -> usize {
        self.shards.iter().map(Engine::cache_len).sum()
    }

    /// Jobs queued across all shards.
    pub fn queue_len(&self) -> usize {
        self.shards.iter().map(Engine::queue_len).sum()
    }

    /// Point-in-time cluster statistics.
    pub fn stats(&self) -> ClusterStats {
        let per_shard: Vec<ServeStats> = self.shards.iter().map(Engine::stats).collect();
        ClusterStats {
            cluster: ServeStats::aggregate(&per_shard),
            per_shard,
            spills: self.spills.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting work, drains every shard, and joins all workers.
    pub fn shutdown(self) {
        for shard in self.shards {
            shard.shutdown();
        }
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
    fn shards_for_lists_distinct_candidates_starting_at_home() {
        let ring = HashRing::new(4, 64);
        for k in 0..1_000u64 {
            let h = fnv1a_words([k, 11]);
            let cands = ring.shards_for(h, 3);
            assert_eq!(cands.len(), 3);
            assert_eq!(cands[0], ring.shard_of(h), "home is first");
            let mut sorted = cands.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "candidates are distinct");
            assert_eq!(cands[1], ring.next_shard(h, cands[0]).unwrap());
        }
        // Asking for more replicas than shards returns them all.
        assert_eq!(ring.shards_for(42, 9).len(), 4);
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
