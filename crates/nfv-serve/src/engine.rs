//! The transport-agnostic serving engine: one registry + cache + admission
//! queue + worker pool. [`crate::cluster`] composes N of these into a
//! shared-nothing sharded cluster; a network frontend would wrap either.

use crate::cache::{CacheKey, CacheUsage, CellBuf, KeyRef, ShardedCache};
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
    /// immediately, tagged [`Fidelity::Coarse`] — then queues the
    /// full-budget recompute as a worker job that answers nobody, one per
    /// key, which upgrades the cache entry in place (same key, monotone:
    /// coarse → full, never back). It needs room in the same queue as
    /// client requests (a full queue drops it; the next coarse hit asks
    /// again). Deterministic methods and `DeadlineUnmeetable` still
    /// reject. [`crate::cluster::ServeCluster`]
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

/// What remains of the fusion scheduler's policy. The rule itself is code
/// (`worker.rs`): every co-queued job of one model plans into the worker's
/// block — methods and budgets mixed, a lone job included — and one
/// `predict_block` call evaluates it; a job whose plan refuses runs alone.
/// Stacking changes *which call* evaluates a composite row, never its
/// arithmetic.
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

/// What a cache probe that missed found out, carried on to the miss path
/// so that it neither resolves the model nor quantizes the key again.
pub(crate) enum Miss {
    UnknownModel,
    /// The request has no cache identity under this entry.
    Unkeyed(Arc<ModelEntry>, Unkeyed),
    /// The entry and the owned key the fill will keep.
    Keyed(Arc<ModelEntry>, CacheKey),
}

/// Why a request has no cache identity under its model (the miss path
/// turns each into its counted reject).
pub(crate) enum Unkeyed {
    /// The feature count the model expects.
    Width(usize),
    Unquantizable,
}

/// The outcome of one request submitted with [`Engine::submit`].
pub type Outcome = Result<ExplainResponse, ServeError>;

/// Where one submitted request's outcome goes: a one-shot sink, answered
/// exactly once by whichever thread settles the request — the submitter
/// (a hit, a reject, an anytime coarse answer) or a worker. The sink must
/// not block. A reply dropped unanswered answers [`ServeError::Internal`],
/// so no caller waits on a request that was lost.
pub struct Reply(Option<Box<dyn FnOnce(Outcome) + Send>>);

impl Reply {
    /// A reply that hands the outcome to `sink`.
    pub fn new(sink: impl FnOnce(Outcome) + Send + 'static) -> Reply {
        Reply(Some(Box::new(sink)))
    }

    /// Answers the request.
    pub fn send(mut self, outcome: Outcome) {
        if let Some(sink) = self.0.take() {
            sink(outcome);
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if let Some(sink) = self.0.take() {
            sink(Err(ServeError::Internal(
                "the request was dropped unanswered".into(),
            )));
        }
    }
}

/// The serving engine. Construct with [`Engine::start`], register models,
/// then call [`Engine::explain`] or [`Engine::submit`] from any number of
/// threads. Dropping the engine (or calling [`Engine::shutdown`]) drains
/// and joins the workers.
pub struct Engine {
    registry: Arc<ModelRegistry>,
    cache: Arc<ShardedCache>,
    metrics: Arc<Metrics>,
    // `None` once shut down: dropping the queue drops the last sender,
    // which is what tells workers to drain and exit.
    queue: Option<JobQueue>,
    workers: Vec<JoinHandle<()>>,
    config: ServeConfig,
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
            workers: config.workers,
            seed: config.seed,
            in_flight: queue.in_flight_handle(),
            passed: Default::default(),
        });
        let workers = worker::spawn_workers(queue.receiver(), ctx);
        Engine {
            registry,
            cache,
            metrics,
            queue: Some(queue),
            workers,
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

    /// Synchronously explains one request: [`Engine::submit`]'s path, then
    /// one wait for its reply.
    ///
    /// Fast path: a cache hit is counted and returned without touching
    /// the queue or reading a clock. Miss path: admission control (bounded queue +
    /// deadline feasibility) may reject with a [`RejectReason`]; admitted
    /// requests block until a worker answers.
    pub fn explain(&self, request: ExplainRequest) -> Result<ExplainResponse, ServeError> {
        match self.cached(&request) {
            Ok(hit) => Ok(hit),
            Err(miss) => self.explain_miss(request, miss),
        }
    }

    /// Explains `request` without waiting: the outcome goes to `reply`,
    /// exactly once. The calling thread never waits on a computation and
    /// runs no explainer factory. It answers a cache hit, a reject or a
    /// plug-in validator's verdict itself; it parks an identical miss on
    /// the computation already in flight; and it queues any other miss for
    /// a worker. The one computation it may run is the anytime coarse
    /// answer, when the queue is full (see [`ServeConfig::anytime`]).
    pub fn submit(&self, request: ExplainRequest, reply: Reply) {
        match self.cached(&request) {
            Ok(hit) => reply.send(Ok(hit)),
            Err(miss) => self.submit_miss(request, miss, reply),
        }
    }

    /// Answers `request` from the cache, or hands back what its miss
    /// carries on with.
    ///
    /// Resolves the model, quantizes and folds the key on the stack and
    /// probes the cache once, all under the registry's read lock (the hit
    /// takes no reference to the model entry). A hit — hot, cold-tier or
    /// coarse — is counted with one relaxed add and returned: no clock is
    /// read, no latency is recorded and nothing of the request is owned. A
    /// coarse hit asks for its refinement again (an earlier ask may have
    /// been dropped) once the lock is released. Anything else counts
    /// nothing here and returns the resolved entry and owned key (or why
    /// there is none) for the miss path to reject or admit.
    pub(crate) fn cached(&self, request: &ExplainRequest) -> Result<ExplainResponse, Miss> {
        let found = self.registry.with_entry(&request.model_id, |entry| {
            let mut cells = CellBuf::new();
            let probe = self
                .key_ref(entry, request, &mut cells)
                .map_err(|why| Miss::Unkeyed(Arc::clone(entry), why))?;
            // Method validation is not needed: an entry exists only for a
            // (version, method) pair that passed it before the fill.
            let Some((attribution, fidelity)) = self.cache.get_ref(&probe) else {
                return Err(Miss::Keyed(Arc::clone(entry), probe.to_key()));
            };
            self.metrics.count_fast_hit(&fidelity);
            let refine = (fidelity.grade() == 0).then(|| (Arc::clone(entry), probe.to_key()));
            let response = ExplainResponse {
                attribution,
                model_version: entry.version,
                cache_hit: true,
                batch_size: 1,
                queue_wait: Duration::ZERO,
                service_time: Duration::ZERO,
                fidelity,
            };
            Ok((response, refine))
        });
        let (response, refine) = found.unwrap_or(Err(Miss::UnknownModel))?;
        if let Some((entry, key)) = refine {
            self.request_refine(entry, key, request);
        }
        Ok(response)
    }

    /// The request's cache identity under `entry`, computed once: quantized
    /// onto the stack with the lookup fingerprint folded in the same pass.
    fn key_ref<'a>(
        &self,
        entry: &ModelEntry,
        request: &'a ExplainRequest,
        cells: &'a mut CellBuf,
    ) -> Result<KeyRef<'a>, Unkeyed> {
        let d = entry.model.n_features();
        if request.features.len() != d {
            return Err(Unkeyed::Width(d));
        }
        KeyRef::quantize(
            &request.model_id,
            entry.version,
            request.method,
            &request.features,
            self.config.quantization_grid,
            cells,
        )
        .ok_or(Unkeyed::Unquantizable)
    }

    /// [`Engine::explain`] behind a cache probe that missed: the miss path
    /// of [`Engine::submit`], then one wait for the reply.
    pub(crate) fn explain_miss(
        &self,
        request: ExplainRequest,
        miss: Miss,
    ) -> Result<ExplainResponse, ServeError> {
        let (tx, rx) = crossbeam::channel::bounded(1);
        self.submit_miss(
            request,
            miss,
            Reply::new(move |outcome| {
                let _ = tx.send(outcome);
            }),
        );
        rx.recv()
            .expect("a reply answers, if only by being dropped")
    }

    /// [`Engine::submit`] behind a cache probe that missed: counts the
    /// request, rejects it or starts it on its way. Its latency clock
    /// starts here, so `total_*` cover answers a worker delivered.
    fn submit_miss(&self, request: ExplainRequest, miss: Miss, reply: Reply) {
        let admitted = Instant::now();
        self.metrics.submitted.fetch_add(1, Ordering::Relaxed);
        let (entry, key) = match self.accept(&request, miss) {
            Ok(accepted) => accepted,
            Err(e) => return reply.send(Err(e)),
        };
        let job = Job {
            request,
            entry,
            key,
            admitted,
            respond: Some(reply),
        };
        // Single-flight: an identical miss already in flight takes this one
        // as a follower, which its leader's completion answers.
        if let Some(job) = self.cache.join_flight(job) {
            self.lead(job);
        }
    }

    /// The entry and owned key a miss is computed under, or its counted
    /// reject. The probe already resolved both, so nothing is resolved or
    /// quantized again; the method's plug-in validator runs here, on the
    /// caller's thread, under the worker's containment.
    fn accept(
        &self,
        request: &ExplainRequest,
        miss: Miss,
    ) -> Result<(Arc<ModelEntry>, CacheKey), ServeError> {
        let invalid = |reason: String| {
            self.metrics
                .rejected_invalid
                .fetch_add(1, Ordering::Relaxed);
            ServeError::Rejected(RejectReason::InvalidRequest { reason })
        };
        match miss {
            Miss::Keyed(entry, key) => {
                self.check_method(&entry, request.method)?;
                Ok((entry, key))
            }
            Miss::UnknownModel => {
                self.metrics
                    .rejected_unknown_model
                    .fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Rejected(RejectReason::UnknownModel {
                    model_id: request.model_id.clone(),
                }))
            }
            Miss::Unkeyed(_, Unkeyed::Width(d)) => Err(invalid(format!(
                "model `{}` expects {d} features, got {}",
                request.model_id,
                request.features.len()
            ))),
            Miss::Unkeyed(entry, Unkeyed::Unquantizable) => {
                // A refused method outranks unquantizable features, as it
                // did when method validation ran first.
                self.check_method(&entry, request.method)?;
                Err(invalid(
                    "features must be finite and within the quantization range".into(),
                ))
            }
        }
    }

    /// Rejects a method the registry does not know or whose validator
    /// refuses this model, counting the reject by its kind. The validator
    /// is plug-in code: a panic in it answers [`ServeError::Internal`] and
    /// counts as an explain error.
    fn check_method(&self, entry: &ModelEntry, method: ExplainMethod) -> Result<(), ServeError> {
        worker::contain(|| entry.supports(method)).inspect_err(|e| {
            let counter = match e {
                ServeError::Rejected(RejectReason::UnknownMethod { .. }) => {
                    &self.metrics.rejected_unknown_method
                }
                ServeError::Rejected(_) => &self.metrics.rejected_invalid,
                _ => &self.metrics.explain_errors,
            };
            counter.fetch_add(1, Ordering::Relaxed);
        })
    }

    /// The admission queue. Only [`Engine::shutdown`] empties its slot, and
    /// it takes the engine, so no `&self` call sees it empty.
    fn queue(&self) -> &JobQueue {
        self.queue.as_ref().expect("the queue lives until shutdown")
    }

    /// Admits a job that leads its key's flight. A queue-full sampling
    /// request is degraded to an inline coarse answer; any other refusal
    /// answers the reject. A leader that is not queued hands its flight to
    /// its first parked follower, which is admitted in turn.
    fn lead(&self, job: Job) {
        let mut next = Some(job);
        while let Some(job) = next {
            next = match self.queue().admit(job, &self.metrics) {
                Ok(()) => None,
                Err((reason, job)) => self.refuse(reason, *job),
            };
        }
    }

    /// A leader admission refused: the anytime coarse answer when the queue
    /// is full and the method degrades, else the counted reject (or
    /// `Internal` when the coarse compute panicked). Returns the follower
    /// that takes over a flight left without an answer.
    fn refuse(&self, reason: RejectReason, job: Job) -> Option<Job> {
        let degrade = matches!(reason, RejectReason::QueueFull { .. }) && self.config.anytime;
        let outcome = match degrade.then(|| self.coarse(&job)).flatten() {
            Some(Ok(resp)) => {
                // Cached **under the original key** with a coarse grade,
                // shared with any single-flight followers, and refined in
                // the queue.
                let (attr, fidelity) = (&resp.attribution, resp.fidelity);
                let grade = fidelity.sample_budget();
                self.cache
                    .insert_graded(job.key.clone(), Arc::clone(attr), grade);
                worker::share_flight(&self.cache, &self.metrics, &job.key, attr, fidelity);
                self.request_refine(Arc::clone(&job.entry), job.key.clone(), &job.request);
                self.metrics.degraded_served.fetch_add(1, Ordering::Relaxed);
                self.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
                self.metrics.completed.fetch_add(1, Ordering::Relaxed);
                self.metrics.service.record(resp.service_time);
                self.metrics.total.record(job.admitted.elapsed());
                job.answer(Ok(resp));
                return None;
            }
            Some(Err(panic)) => {
                self.metrics.explain_errors.fetch_add(1, Ordering::Relaxed);
                Err(panic)
            }
            None => {
                let counter = match reason {
                    RejectReason::QueueFull { .. } => Some(&self.metrics.rejected_queue_full),
                    RejectReason::DeadlineUnmeetable { .. } => {
                        Some(&self.metrics.rejected_deadline_unmeetable)
                    }
                    _ => None,
                };
                if let Some(counter) = counter {
                    counter.fetch_add(1, Ordering::Relaxed);
                }
                Err(ServeError::Rejected(reason))
            }
        };
        let next = self.cache.pass_flight(&job.key);
        job.answer(outcome);
        next
    }

    /// The anytime answer to a queue-full request: the coarsened method
    /// computed inline on the caller's thread (≈⅛ of the full budget),
    /// marked [`Fidelity::Coarse`]. The coarse factory and explainer
    /// run under the worker's containment: a panic is
    /// [`ServeError::Internal`]. `None` when the method has no coarse
    /// variant or the coarse compute returns an error — the caller falls
    /// back to the original rejection.
    fn coarse(&self, job: &Job) -> Option<Outcome> {
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
        let t_run = Instant::now();
        let coarse = worker::contain(|| {
            let explainer = job.entry.explainer(coarse_method)?;
            let mut ws = CoalitionWorkspace::default();
            let x = &job.request.features;
            worker::explain_one(&job.entry, &*explainer, x, seed, &mut ws).map_err(ServeError::from)
        });
        match coarse {
            Ok(attr) => Some(Ok(ExplainResponse {
                attribution: Arc::new(attr),
                model_version: job.key.model_version,
                cache_hit: false,
                batch_size: 1,
                queue_wait: Duration::ZERO,
                service_time: t_run.elapsed(),
                fidelity: Fidelity::Coarse { sample_budget },
            })),
            Err(panic @ ServeError::Internal(_)) => Some(Err(panic)),
            Err(_) => None,
        }
    }

    /// Queues the full-budget upgrade of `key`'s coarse entry as an
    /// ordinary worker job that answers nobody: no deadline, no
    /// feasibility check (nobody waits on it), one queue slot. It holds the
    /// key's single-flight entry, so a key has at most one refinement in
    /// flight and an identical client miss follows it to the full answer.
    /// The worker resolves its explainer, so no plug-in code runs here. A
    /// full queue drops it (counted in `refine_dropped`): the coarse answer
    /// stands, the next coarse hit asks again, and a follower that parked
    /// on it meanwhile is admitted in its place. The worker seeds it from
    /// the key like any job, so the upgraded bits are those of a request
    /// that never degraded.
    fn request_refine(&self, entry: Arc<ModelEntry>, key: CacheKey, request: &ExplainRequest) {
        // A refinement or a client miss already computes this key.
        if !self.cache.lead_flight(&key) {
            return;
        }
        let job = Job {
            request: ExplainRequest {
                budget: Duration::MAX,
                ..request.clone()
            },
            entry,
            key,
            admitted: Instant::now(),
            respond: None,
        };
        if let Err((_, job)) = self.queue().try_send(job) {
            self.metrics.refine_dropped.fetch_add(1, Ordering::Relaxed);
            if let Some(next) = self.cache.pass_flight(&job.key) {
                self.lead(next);
            }
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

    /// Pins the output space each method explains for a registered GBDT
    /// classifier: TreeSHAP walks the trees and answers in log-odds (its
    /// `base + Σφ` is the margin), while a model-agnostic method sees the
    /// model's `predict`, which is `sigmoid(margin)`. One model id thus
    /// answers in two units; unifying them is a deliberate change to this
    /// test.
    #[test]
    fn gbdt_classifier_treeshap_explains_the_margin_and_kernelshap_the_probability() {
        let synth = interaction_xor(400, 2, 21).unwrap();
        let model = Gbdt::fit(
            &synth.data,
            &GbdtParams {
                n_rounds: 20,
                ..Default::default()
            },
            0,
        )
        .unwrap();
        let bg = Background::from_dataset(&synth.data, 16, 1).unwrap();
        let engine = ServeEngine::start(ServeConfig::default());
        engine
            .registry()
            .register(
                "m",
                ServeModel::Gbdt(model.clone()),
                synth.data.names.clone(),
                bg,
            )
            .unwrap();
        let x = synth.data.row(3).to_vec();
        let (margin, proba) = (model.margin(&x), model.predict(&x));
        assert!(
            (margin - proba).abs() > 0.1,
            "the two spaces must differ here"
        );
        let explain = |method| {
            let req = ExplainRequest {
                model_id: "m".into(),
                features: x.clone(),
                method,
                budget: Duration::from_secs(5),
            };
            let a = engine.explain(req).unwrap().attribution;
            a.base_value + a.values.iter().sum::<f64>()
        };
        let tree = explain(ExplainMethod::TreeShap);
        assert!(
            (tree - margin).abs() < 1e-8,
            "TreeSHAP {tree} vs margin {margin}"
        );
        let kernel = explain(ExplainMethod::KernelShap { n_coalitions: 64 });
        assert!(
            (kernel - proba).abs() < 1e-8,
            "KernelSHAP {kernel} vs predict {proba}"
        );
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
