//! The transport-agnostic serving engine: one registry + cache + admission
//! queue + worker pool. [`crate::cluster`] composes N of these into a
//! shared-nothing sharded cluster; a network frontend would wrap either.

use crate::cache::{self, CacheKey, CacheUsage, CellBuf, KeyRef, ShardedCache};
use crate::error::{RejectReason, ServeError};
use crate::metrics::{Metrics, ServeStats};
use crate::queue::{Job, JobQueue};
use crate::registry::{ModelEntry, ModelRegistry};
use crate::request::{request_seed, ExplainMethod, ExplainRequest, ExplainResponse, Fidelity};
use crate::worker;
use nfv_xai::prelude::CoalitionWorkspace;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Engine configuration. The defaults serve a mid-size control plane on a
/// few cores; everything is tunable per deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Worker threads running explainers.
    pub workers: usize,
    /// Bounded queue capacity (admission rejects beyond this).
    pub queue_capacity: usize,
    /// Largest micro-batch a worker forms (from the backlog it finds;
    /// workers never wait for companions).
    pub max_batch: usize,
    /// Exact-tier (hot) cache entries across shards.
    pub cache_capacity: usize,
    /// Quantized-tier (cold) cache entries across shards. Hot entries
    /// demote here on eviction; a cold entry costs ~¼ the bytes of a hot
    /// one and serves with a typed `Fidelity::Quantized` error bound.
    /// 0 disables the tier (pre-tier behaviour: evictions die).
    pub cold_capacity: usize,
    /// Number of cache shards (lock-contention control).
    pub cache_shards: usize,
    /// Input quantization grid for cache keys (absolute units).
    pub quantization_grid: f64,
    /// Engine seed mixed into every stochastic explainer's seed.
    pub seed: u64,
    /// The fused-fill statistic's target (see [`FusionPolicy`]).
    pub fusion: FusionPolicy,
    /// **Anytime explanations**: when admission would reject a
    /// sampling-method request with `QueueFull`, the engine instead
    /// computes a coarse attribution inline (budget cut via
    /// [`crate::request::ExplainMethod::coarsened_with`]) and returns it
    /// immediately, tagged [`Fidelity::Coarse`] — then hands the
    /// full-budget recompute to a background refiner (a bounded queue of
    /// `REFINE_QUEUE` jobs) that upgrades the cache entry in place (same
    /// key, monotone: coarse → full, never back). Deterministic methods
    /// and `DeadlineUnmeetable` still reject. [`crate::cluster::ServeCluster`]
    /// turns this off on its shards: its spill-to-neighbor policy needs a
    /// full shard to surface `QueueFull` honestly.
    pub anytime: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 256,
            max_batch: 16,
            cache_capacity: 4096,
            cold_capacity: 16_384,
            cache_shards: 8,
            quantization_grid: 1e-6,
            seed: 0,
            fusion: FusionPolicy::default(),
            anytime: true,
        }
    }
}

/// Depth of the anytime refiner's queue. A full queue drops the
/// refinement (the coarse answer stands; counted in `refine_dropped`, and
/// the next hit on the key asks again) rather than blocking the serving
/// path.
const REFINE_QUEUE: usize = 64;

/// What remains of the fusion scheduler's policy. The rule itself is code
/// (`worker.rs`): two or more co-queued plan-capable jobs of one model —
/// the Shapley family and per-instance permutation, methods and budgets
/// mixed — stack their composite rows into one shared block and one
/// `predict_block` call; a lone job runs the same plan → evaluate → finish
/// pipeline on its own. Either way the answer has the same bits: stacking
/// changes *which call* evaluates a composite row, never its arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusionPolicy {
    /// Row count a fused group *aims* for — the denominator of the
    /// `fused_fill_ratio` statistic, nothing else (default 1 024, the
    /// value every recorded fill ratio divides by). A field rather than a
    /// constant only because `benchmark/` reads it (ROADMAP, leftovers).
    pub target_rows: usize,
}

impl Default for FusionPolicy {
    fn default() -> Self {
        FusionPolicy { target_rows: 1024 }
    }
}

/// The serving engine. Construct with [`Engine::start`], register models,
/// then call [`Engine::explain`] from any number of threads. Dropping the
/// engine (or calling [`Engine::shutdown`]) drains and joins the workers.
pub struct Engine {
    registry: Arc<ModelRegistry>,
    cache: Arc<ShardedCache>,
    metrics: Arc<Metrics>,
    // `None` once shut down: dropping the queue drops the last sender,
    // which is what tells workers to drain and exit.
    queue: Option<JobQueue>,
    workers: Vec<JoinHandle<()>>,
    // Anytime refinement: `None` when anytime is disabled or after
    // shutdown. Dropping the sender is what tells the refiner to exit.
    refine_tx: Option<crossbeam::channel::Sender<RefineJob>>,
    refiner: Option<JoinHandle<()>>,
    config: ServeConfig,
}

/// One pending in-place upgrade: recompute `key` at its full budget and
/// overwrite the coarse cache entry.
struct RefineJob {
    entry: Arc<ModelEntry>,
    key: CacheKey,
    features: Vec<f64>,
}

/// The background refiner: full-budget recomputes of keys the anytime path
/// answered coarsely. Seeds derive from the *original* key's content hash —
/// exactly what a worker would have used — so the upgraded entry is
/// bit-identical to the answer a non-degraded request would have received.
fn refiner_loop(
    rx: crossbeam::channel::Receiver<RefineJob>,
    cache: Arc<ShardedCache>,
    metrics: Arc<Metrics>,
    engine_seed: u64,
) {
    let mut ws = CoalitionWorkspace::default();
    while let Ok(job) = rx.recv() {
        // Another path (a worker fill, or an earlier refinement) may have
        // already upgraded this key.
        if cache.entry_grade(&job.key) == Some(1) {
            continue;
        }
        let explainer = match job.entry.explainer(job.key.method) {
            Ok(e) => e,
            Err(_) => {
                // The coarse answer stands (see the explain-error arm).
                metrics.explain_errors.fetch_add(1, Ordering::Relaxed);
                continue;
            }
        };
        let seed = request_seed(engine_seed, job.key.stable_hash());
        match worker::explain_one(&job.entry, &*explainer, &job.features, seed, &mut ws) {
            Ok(attr) => {
                cache.insert(job.key, Arc::new(attr));
                metrics.refined_entries.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                // The coarse answer stands; the next full-path request for
                // this key will surface the error through normal serving.
                metrics.explain_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl Engine {
    /// Starts the worker pool and returns a ready engine.
    pub fn start(config: ServeConfig) -> Engine {
        let registry = Arc::new(ModelRegistry::new());
        let cache = Arc::new(ShardedCache::new(
            config.cache_capacity,
            config.cold_capacity,
            config.cache_shards,
        ));
        let metrics = Arc::new(Metrics::new());
        metrics
            .fused_target_rows
            .store(config.fusion.target_rows as u64, Ordering::Relaxed);
        let queue = JobQueue::new(config.queue_capacity, config.workers);
        let ctx = Arc::new(worker::WorkerContext {
            cache: Arc::clone(&cache),
            metrics: Arc::clone(&metrics),
            max_batch: config.max_batch,
            seed: config.seed,
            in_flight: queue.in_flight_handle(),
        });
        let workers = worker::spawn_workers(config.workers, queue.receiver(), ctx);
        let (refine_tx, refiner) = if config.anytime {
            let (tx, rx) = crossbeam::channel::bounded(REFINE_QUEUE);
            let cache = Arc::clone(&cache);
            let metrics = Arc::clone(&metrics);
            let seed = config.seed;
            let handle = std::thread::Builder::new()
                .name("nfv-serve-refiner".into())
                .spawn(move || refiner_loop(rx, cache, metrics, seed))
                .expect("spawn refiner thread");
            (Some(tx), Some(handle))
        } else {
            (None, None)
        };
        Engine {
            registry,
            cache,
            metrics,
            queue: Some(queue),
            workers,
            refine_tx,
            refiner,
            config,
        }
    }

    /// The model registry (register/deregister models here).
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Synchronously explains one request.
    ///
    /// Fast path: a cache hit returns without touching the queue. Miss
    /// path: admission control (bounded queue + deadline feasibility) may
    /// reject with a [`RejectReason`]; admitted requests block until a
    /// worker answers.
    pub fn explain(&self, request: ExplainRequest) -> Result<ExplainResponse, ServeError> {
        let t0 = Instant::now();
        self.metrics.submitted.fetch_add(1, Ordering::Relaxed);

        // Resolve + validate.
        let Some(entry) = self.registry.get(&request.model_id) else {
            self.metrics
                .rejected_unknown_model
                .fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Rejected(RejectReason::UnknownModel {
                model_id: request.model_id,
            }));
        };
        let d = entry.model.n_features();
        if request.features.len() != d {
            self.metrics
                .rejected_invalid
                .fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Rejected(RejectReason::InvalidRequest {
                reason: format!(
                    "model `{}` expects {d} features, got {}",
                    request.model_id,
                    request.features.len()
                ),
            }));
        }
        // The request's identity, computed once: quantize onto the stack
        // and fold the lookup fingerprint in the same pass. A hit reads
        // the cache with it and never owns a key.
        let mut cells = CellBuf::new();
        let Some(probe) = KeyRef::quantize(
            &request.model_id,
            entry.version,
            request.method,
            &request.features,
            self.config.quantization_grid,
            &mut cells,
        ) else {
            // A refused method outranks unquantizable features, as it did
            // when method validation ran first.
            self.check_method(&entry, request.method)?;
            self.metrics
                .rejected_invalid
                .fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Rejected(RejectReason::InvalidRequest {
                reason: "features must be finite and within the quantization range".into(),
            }));
        };

        // Cache fast path. Cold-tier hits carry their dequantization error
        // bound in the fidelity; coarse anytime entries re-arm their
        // background refinement (it may have been dropped under pressure).
        // Method validation waits behind the probe: an entry exists only
        // for a (version, method) pair that passed it before the fill.
        if let Some((attr, fidelity)) = self.cache.get_ref(&probe) {
            self.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            if matches!(
                fidelity,
                Fidelity::Quantized { .. } | Fidelity::CoarseQuantized { .. }
            ) {
                self.metrics.quantized_hits.fetch_add(1, Ordering::Relaxed);
            }
            if fidelity.grade() == 0 {
                self.request_refine(&entry, probe.to_key(), &request.features);
            }
            self.metrics.completed.fetch_add(1, Ordering::Relaxed);
            self.metrics.total.record(t0.elapsed());
            return Ok(ExplainResponse {
                attribution: attr,
                model_version: entry.version,
                cache_hit: true,
                batch_size: 1,
                queue_wait: Duration::ZERO,
                service_time: Duration::ZERO,
                fidelity,
            });
        }

        // A miss: validate the method, then own the key — the fill keeps it.
        self.check_method(&entry, request.method)?;
        let key = probe.to_key();

        // Single-flight: collapse concurrent *identical* misses onto one
        // computation. The first miss becomes the leader and proceeds to
        // admission; followers park on a channel and receive the leader's
        // attribution the moment it lands in the cache — one model
        // evaluation instead of N. A follower whose leader fails or whose
        // budget runs out falls through and computes normally.
        let leads_flight = match self.cache.begin_flight(&key) {
            cache::Flight::Leader => true,
            cache::Flight::Follower(rx) => {
                let remaining = request.budget.saturating_sub(t0.elapsed());
                if let Ok(Some((attr, fidelity))) = rx.recv_timeout(remaining) {
                    self.metrics
                        .single_flight_hits
                        .fetch_add(1, Ordering::Relaxed);
                    self.metrics.completed.fetch_add(1, Ordering::Relaxed);
                    self.metrics.total.record(t0.elapsed());
                    return Ok(ExplainResponse {
                        attribution: attr,
                        model_version: key.model_version,
                        cache_hit: true,
                        batch_size: 1,
                        queue_wait: Duration::ZERO,
                        service_time: Duration::ZERO,
                        fidelity,
                    });
                }
                false
            }
        };

        // Admission + enqueue. A leader that stops short of the queue
        // releases its followers itself (they fall through and try alone).
        let release_flight = || {
            if leads_flight {
                self.cache.complete_flight(&key, None);
            }
        };
        let Some(queue) = self.queue.as_ref() else {
            release_flight();
            return Err(ServeError::Rejected(RejectReason::ShuttingDown));
        };
        // The method resolves to its explainer here, once, so a factory
        // failure is answered before the request takes a queue slot.
        let explainer = match entry.explainer(request.method) {
            Ok(explainer) => explainer,
            Err(e) => {
                release_flight();
                self.metrics.explain_errors.fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
        };
        let (respond_tx, respond_rx) = crossbeam::channel::bounded(1);
        let job = Job {
            request,
            entry,
            key,
            explainer,
            admitted: t0,
            respond: respond_tx,
        };
        if let Err((reason, job)) = queue.admit(job, &self.metrics) {
            // Queue-full pressure on a sampling method: degrade before
            // rejecting. The coarse compute runs inline on this caller's
            // thread (≈⅛ of the full budget), answers immediately with a
            // typed coarse fidelity, and schedules the full-budget
            // refinement in the background.
            if matches!(reason, RejectReason::QueueFull { .. }) && self.config.anytime {
                if let Some(response) = self.serve_anytime(&job, leads_flight, t0) {
                    return Ok(response);
                }
            }
            // An admitted leader's flight is resolved by the worker; a
            // rejected leader must release its followers itself (they fall
            // through and try on their own).
            if leads_flight {
                self.cache.complete_flight(&job.key, None);
            }
            match &reason {
                RejectReason::QueueFull { .. } => {
                    self.metrics
                        .rejected_queue_full
                        .fetch_add(1, Ordering::Relaxed);
                }
                RejectReason::DeadlineUnmeetable { .. } => {
                    self.metrics
                        .rejected_deadline_unmeetable
                        .fetch_add(1, Ordering::Relaxed);
                }
                _ => {}
            }
            return Err(ServeError::Rejected(reason));
        }

        // Block until a worker answers (the sync in-process client).
        match respond_rx.recv() {
            Ok(outcome) => outcome,
            Err(_) => Err(ServeError::Internal(
                "worker dropped the response channel".into(),
            )),
        }
    }

    /// Rejects a method the registry does not know or whose validator
    /// refuses this model, counting the reject by its kind.
    fn check_method(&self, entry: &ModelEntry, method: ExplainMethod) -> Result<(), ServeError> {
        entry.supports(method).inspect_err(|e| {
            let counter = match e {
                ServeError::Rejected(RejectReason::UnknownMethod { .. }) => {
                    &self.metrics.rejected_unknown_method
                }
                _ => &self.metrics.rejected_invalid,
            };
            counter.fetch_add(1, Ordering::Relaxed);
        })
    }

    /// The anytime path for a queue-full rejection: compute the coarsened
    /// method inline, cache it **under the original key** with a coarse
    /// grade, release any single-flight followers with the marked answer,
    /// and schedule the full-budget refinement. `None` when the method has
    /// no coarse variant or the coarse compute itself fails — the caller
    /// falls back to the original rejection.
    fn serve_anytime(&self, job: &Job, leads_flight: bool, t0: Instant) -> Option<ExplainResponse> {
        // The coarsening divisor is per-(model, method) service-class
        // configuration (default ÷ 8): a latency-critical class can be
        // configured to degrade harder, an accuracy-critical one gentler
        // or not at all.
        let divisor = self
            .registry
            .anytime_divisor(&job.request.model_id, job.request.method.method_id());
        let (coarse_method, sample_budget) = job.request.method.coarsened_with(divisor)?;
        // Seed from the *coarse* key's content hash: the coarse answer is
        // its own deterministic identity (bit-identical wherever the same
        // coarse question is computed), distinct from the full answer's.
        let coarse_key = CacheKey::build(
            &job.request.model_id,
            job.key.model_version,
            coarse_method,
            &job.request.features,
            self.config.quantization_grid,
        )?;
        let seed = request_seed(self.config.seed, coarse_key.stable_hash());
        let explainer = job.entry.explainer(coarse_method).ok()?;
        let t_run = Instant::now();
        let mut ws = CoalitionWorkspace::default();
        let attr = worker::explain_one(
            &job.entry,
            &*explainer,
            &job.request.features,
            seed,
            &mut ws,
        )
        .ok()?;
        let service = t_run.elapsed();
        let attr = Arc::new(attr);
        let fidelity = Fidelity::Coarse { sample_budget };
        self.cache
            .insert_graded(job.key.clone(), Arc::clone(&attr), sample_budget);
        if leads_flight {
            self.cache
                .complete_flight(&job.key, Some((Arc::clone(&attr), fidelity)));
        }
        self.request_refine(&job.entry, job.key.clone(), &job.request.features);
        self.metrics.degraded_served.fetch_add(1, Ordering::Relaxed);
        self.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
        self.metrics.completed.fetch_add(1, Ordering::Relaxed);
        self.metrics.service.record(service);
        self.metrics.total.record(t0.elapsed());
        Some(ExplainResponse {
            attribution: attr,
            model_version: job.key.model_version,
            cache_hit: false,
            batch_size: 1,
            queue_wait: Duration::ZERO,
            service_time: service,
            fidelity,
        })
    }

    /// Queues a full-budget in-place upgrade for `key`. Dropped (counted)
    /// when the refine queue is full — the coarse answer stands and the
    /// next request for the key re-arms refinement.
    fn request_refine(&self, entry: &Arc<ModelEntry>, key: CacheKey, features: &[f64]) {
        let Some(tx) = self.refine_tx.as_ref() else {
            return;
        };
        let job = RefineJob {
            entry: Arc::clone(entry),
            key,
            features: features.to_vec(),
        };
        if tx.try_send(job).is_err() {
            self.metrics.refine_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Point-in-time metrics snapshot, including cache tier occupancy.
    pub fn stats(&self) -> ServeStats {
        let mut stats = self.metrics.snapshot();
        let usage = self.cache.usage();
        stats.cache_hot_entries = usage.hot_entries as u64;
        stats.cache_cold_entries = usage.cold_entries as u64;
        stats.cache_hot_bytes = usage.hot_bytes as u64;
        stats.cache_cold_bytes = usage.cold_bytes as u64;
        stats
    }

    /// Per-tier cache entry and byte usage.
    pub fn cache_usage(&self) -> CacheUsage {
        self.cache.usage()
    }

    /// Entries currently cached.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Jobs currently queued (0 after shutdown).
    pub fn queue_len(&self) -> usize {
        self.queue.as_ref().map_or(0, |q| q.len())
    }

    /// Eagerly drops cached explanations of `model_id` (all versions).
    pub fn invalidate_model(&self, model_id: &str) {
        self.cache.invalidate_model(model_id);
    }

    /// Stops accepting work, drains the queue, and joins the workers.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        // Dropping the queue drops the last sender; workers finish the
        // backlog and exit.
        self.queue = None;
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Same deal for the refiner: dropping the sender ends its loop
        // after it drains pending upgrades.
        self.refine_tx = None;
        if let Some(h) = self.refiner.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use nfv_data::prelude::*;
    use nfv_ml::prelude::*;
    use nfv_xai::prelude::*;
    use std::time::Duration;

    fn engine_with_gbdt(cfg: ServeConfig) -> (ServeEngine, Vec<Vec<f64>>) {
        let synth = friedman1(300, 5, 0.1, 11).unwrap();
        let model = Gbdt::fit(
            &synth.data,
            &GbdtParams {
                n_rounds: 15,
                ..Default::default()
            },
            0,
        )
        .unwrap();
        let bg = Background::from_dataset(&synth.data, 16, 1).unwrap();
        let engine = ServeEngine::start(cfg);
        engine
            .registry()
            .register("m", ServeModel::Gbdt(model), synth.data.names.clone(), bg)
            .unwrap();
        let rows: Vec<Vec<f64>> = (0..20).map(|i| synth.data.row(i).to_vec()).collect();
        (engine, rows)
    }

    #[test]
    fn serves_and_caches() {
        let (engine, rows) = engine_with_gbdt(ServeConfig::default());
        let req = |x: &Vec<f64>| ExplainRequest {
            model_id: "m".into(),
            features: x.clone(),
            method: ExplainMethod::TreeShap,
            budget: Duration::from_secs(1),
        };
        let first = engine.explain(req(&rows[0])).unwrap();
        assert!(!first.cache_hit);
        assert!(first.attribution.efficiency_gap().abs() < 1e-8);
        let second = engine.explain(req(&rows[0])).unwrap();
        assert!(second.cache_hit);
        assert_eq!(second.attribution, first.attribution);
        let stats = engine.stats();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.cache_hits, 1);
        assert!(stats.cache_hit_rate > 0.0);
        engine.shutdown();
    }

    #[test]
    fn unknown_model_and_bad_shape_reject() {
        let (engine, rows) = engine_with_gbdt(ServeConfig::default());
        let err = engine
            .explain(ExplainRequest {
                model_id: "nope".into(),
                features: rows[0].clone(),
                method: ExplainMethod::TreeShap,
                budget: Duration::from_secs(1),
            })
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::Rejected(RejectReason::UnknownModel { .. })
        ));
        let err = engine
            .explain(ExplainRequest {
                model_id: "m".into(),
                features: vec![1.0],
                method: ExplainMethod::TreeShap,
                budget: Duration::from_secs(1),
            })
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::Rejected(RejectReason::InvalidRequest { .. })
        ));
        let err = engine
            .explain(ExplainRequest {
                model_id: "m".into(),
                features: vec![f64::NAN; 5],
                method: ExplainMethod::TreeShap,
                budget: Duration::from_secs(1),
            })
            .unwrap_err();
        assert!(err.is_reject());
    }

    #[test]
    fn unknown_method_reject_has_its_own_counter() {
        let (engine, rows) = engine_with_gbdt(ServeConfig::default());
        let err = engine
            .explain(ExplainRequest {
                model_id: "m".into(),
                features: rows[0].clone(),
                method: ExplainMethod::custom("no-such-method-registered", 4),
                budget: Duration::from_secs(1),
            })
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::Rejected(RejectReason::UnknownMethod { .. })
        ));
        let stats = engine.stats();
        assert_eq!(stats.rejected_unknown_method, 1);
        assert_eq!(stats.rejected_invalid, 0);
    }

    #[test]
    fn refused_methods_reject_as_before_and_never_hit() {
        let (engine, rows) = engine_with_gbdt(ServeConfig::default());
        // A linear model: registered methods whose validator refuses it.
        let synth = friedman1(100, 5, 0.1, 3).unwrap();
        let linear = LinearRegression::fit(&synth.data, 1e-6).unwrap();
        let bg = Background::from_dataset(&synth.data, 8, 1).unwrap();
        engine
            .registry()
            .register(
                "lin",
                ServeModel::Linear(linear),
                synth.data.names.clone(),
                bg,
            )
            .unwrap();
        let req = |model_id: &str, method, features: Vec<f64>| ExplainRequest {
            model_id: model_id.into(),
            features,
            method,
            budget: Duration::from_secs(1),
        };
        let unknown = ExplainMethod::custom("no-such-method-registered", 4);
        // Asked twice: the second ask must not find anything cached.
        for round in 1..=2u64 {
            let err = engine
                .explain(req("lin", ExplainMethod::TreeShap, rows[0].clone()))
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    ServeError::Rejected(RejectReason::InvalidRequest { .. })
                ),
                "{err:?}"
            );
            let err = engine
                .explain(req("m", unknown, rows[0].clone()))
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    ServeError::Rejected(RejectReason::UnknownMethod { .. })
                ),
                "{err:?}"
            );
            let stats = engine.stats();
            assert_eq!(stats.rejected_invalid, round);
            assert_eq!(stats.rejected_unknown_method, round);
            assert_eq!((stats.cache_hits, stats.completed), (0, 0));
            assert_eq!(engine.cache_len(), 0);
        }
        // An unknown method outranks unquantizable features, as it did
        // when validation ran in front of the key build.
        let err = engine
            .explain(req("m", unknown, vec![f64::NAN; 5]))
            .unwrap_err();
        assert!(
            matches!(
                err,
                ServeError::Rejected(RejectReason::UnknownMethod { .. })
            ),
            "{err:?}"
        );
        let stats = engine.stats();
        assert_eq!(stats.rejected_unknown_method, 3);
        assert_eq!(stats.rejected_invalid, 2);
        // A warmed key of a supported method does not lend its answer to
        // a refused method on the same input.
        engine
            .explain(req("m", ExplainMethod::TreeShap, rows[0].clone()))
            .unwrap();
        assert!(engine.explain(req("m", unknown, rows[0].clone())).is_err());
        assert_eq!(engine.stats().cache_hits, 0);
    }

    #[test]
    fn a_hit_folds_the_key_once_and_runs_no_fnv_pass() {
        use crate::request::fold_count;
        let (engine, rows) = engine_with_gbdt(ServeConfig::default());
        let req = || ExplainRequest {
            model_id: "m".into(),
            features: rows[0].clone(),
            method: ExplainMethod::KernelShap { n_coalitions: 16 },
            budget: Duration::from_secs(1),
        };
        engine.explain(req()).unwrap();
        let (fnv, lookup) = fold_count::snapshot();
        let hit = engine.explain(req()).unwrap();
        assert!(hit.cache_hit && hit.fidelity.is_exact());
        let (fnv_after, lookup_after) = fold_count::snapshot();
        assert_eq!(lookup_after - lookup, 1, "one identity per request");
        assert_eq!(
            fnv_after - fnv,
            0,
            "seeds and routes are not a hit's business"
        );
    }

    #[test]
    fn re_registration_invalidates_old_answers() {
        let (engine, rows) = engine_with_gbdt(ServeConfig::default());
        let req = ExplainRequest {
            model_id: "m".into(),
            features: rows[1].clone(),
            method: ExplainMethod::TreeShap,
            budget: Duration::from_secs(1),
        };
        let v1 = engine.explain(req.clone()).unwrap();
        // Replace the model: a *different* fit under the same id.
        let synth = friedman1(300, 5, 0.1, 99).unwrap();
        let model2 = Gbdt::fit(
            &synth.data,
            &GbdtParams {
                n_rounds: 5,
                ..Default::default()
            },
            1,
        )
        .unwrap();
        let bg = Background::from_dataset(&synth.data, 16, 1).unwrap();
        engine
            .registry()
            .register("m", ServeModel::Gbdt(model2), synth.data.names.clone(), bg)
            .unwrap();
        let v2 = engine.explain(req).unwrap();
        assert!(v2.model_version > v1.model_version);
        assert!(!v2.cache_hit, "new version must not hit v1's cache entry");
        assert_ne!(v2.attribution, v1.attribution);
    }

    #[test]
    fn widened_methods_serve_end_to_end() {
        let (engine, rows) = engine_with_gbdt(ServeConfig::default());
        for (method, tag) in [
            (
                ExplainMethod::SamplingShapley {
                    n_permutations: 8,
                    antithetic: true,
                },
                "sampling-shapley-antithetic",
            ),
            (ExplainMethod::ExactShapley, "exact-shapley"),
            (ExplainMethod::GroupedShapley, "grouped-shapley"),
            (ExplainMethod::Permutation, "permutation"),
        ] {
            let resp = engine
                .explain(ExplainRequest {
                    model_id: "m".into(),
                    features: rows[2].clone(),
                    method,
                    budget: Duration::from_secs(5),
                })
                .unwrap();
            assert_eq!(resp.attribution.method, tag, "{method:?}");
            assert!(!resp.cache_hit);
        }
        engine.shutdown();
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        let (engine, rows) = engine_with_gbdt(ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        });
        for r in &rows {
            engine
                .explain(ExplainRequest {
                    model_id: "m".into(),
                    features: r.clone(),
                    method: ExplainMethod::TreeShap,
                    budget: Duration::from_secs(1),
                })
                .unwrap();
        }
        drop(engine); // must not hang or panic
    }
}
