//! Worker threads: pull jobs, micro-batch them, run the explainers, fill
//! the cache, and answer the waiting clients.
//!
//! Dispatch is generic: a job's method resolves to a `Box<dyn Explainer>`
//! once, at admission (via [`crate::registry::ModelEntry::explainer`]), and
//! everything after that — the fusion scheduler's fusability check, direct
//! execution, coalition planning, fused finishing — is trait dispatch. No
//! per-method `match` exists in this module, so a new method added to the
//! registry is served, batched, *and fused* with no scheduler change.
//!
//! Determinism: stochastic explainers get a seed derived from the request's
//! *content* (cache key hash mixed with the engine seed), never from
//! arrival order, thread id, or batch composition. The same request on the
//! same engine therefore yields bit-for-bit the same attribution no matter
//! how it was batched.
//!
//! Allocation: each worker owns one [`CoalitionWorkspace`] (whose block a
//! lone request runs on) and one [`FusedBlock`] (which a group stacks
//! into) for its whole lifetime. Both grow to their high-water mark during
//! the first few requests and are then reused verbatim, so steady-state
//! serving does not allocate on the coalition hot path. Model evaluation
//! inside that path goes through
//! [`crate::registry::ModelEntry::explain_regressor`], i.e. the packed SoA
//! engine for tree ensembles.

use crate::batcher::{gather, group_compatible, group_same_model};
use crate::cache::ShardedCache;
use crate::error::{RejectReason, ServeError};
use crate::metrics::Metrics;
use crate::queue::Job;
use crate::registry::ModelEntry;
use crate::request::{request_seed, service_class_key, ExplainResponse, Fidelity};
use crossbeam::channel::Receiver;
use nfv_xai::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Shared state a worker needs (a slice of the engine).
pub struct WorkerContext {
    /// The shared explanation cache.
    pub cache: Arc<ShardedCache>,
    /// Shared metrics.
    pub metrics: Arc<Metrics>,
    /// Largest number of jobs one worker takes per cycle.
    pub max_batch: usize,
    /// Engine seed mixed into every per-request explainer seed.
    pub seed: u64,
    /// Dequeued-but-unanswered job count, shared with admission control
    /// (see [`crate::queue::JobQueue::in_flight_handle`]).
    pub in_flight: Arc<AtomicU64>,
}

/// Spawns `n` worker threads consuming `rx`. Threads exit when every
/// sender is dropped and the queue drains.
pub fn spawn_workers(n: usize, rx: Receiver<Job>, ctx: Arc<WorkerContext>) -> Vec<JoinHandle<()>> {
    (0..n.max(1))
        .map(|i| {
            let rx = rx.clone();
            let ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name(format!("nfv-serve-worker-{i}"))
                .spawn(move || worker_loop(rx, ctx))
                .expect("spawn worker thread")
        })
        .collect()
}

fn worker_loop(rx: Receiver<Job>, ctx: Arc<WorkerContext>) {
    // The worker's arenas: persist across every micro-batch this thread
    // ever serves (not per-group), which is what makes steady state
    // allocation-free. Seeding keeps results independent of which worker
    // got the job, so reuse is invisible to callers.
    let mut ws = CoalitionWorkspace::default();
    let mut block = FusedBlock::default();
    while let Ok(first) = rx.recv() {
        let batch = gather(&rx, first, ctx.max_batch);
        // Everything gathered is now invisible to the channel length;
        // count it as in-flight until each group's responses are sent, so
        // admission keeps seeing the work.
        ctx.in_flight
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        // Grouped by model identity only (methods mixed): every job in a
        // group shares one regressor, so coalition plans can stack into
        // one shared evaluation block.
        for group in group_same_model(batch) {
            let n = group.len() as u64;
            process_model_group(group, &ctx, &mut ws, &mut block);
            ctx.in_flight.fetch_sub(n, Ordering::Relaxed);
        }
    }
}

/// Builds the [`ExplainContext`] for one job against its resolved entry:
/// the packed SoA engine where one exists, the registration-time base
/// value (bit-identical to a recompute), and the content-derived seed.
fn explain_context<'a>(entry: &'a ModelEntry, x: &'a [f64], seed: u64) -> ExplainContext<'a> {
    ExplainContext {
        model: entry.explain_regressor(),
        x,
        background: &entry.background,
        names: &entry.feature_names,
        base_hint: Some(entry.expected_output),
        seed,
    }
}

/// Runs one explanation end to end through the explainer's `direct()`. Also
/// used by the engine's anytime/refinement paths, which must be
/// bit-identical to worker execution.
pub(crate) fn explain_one(
    entry: &ModelEntry,
    explainer: &dyn Explainer,
    x: &[f64],
    seed: u64,
    ws: &mut CoalitionWorkspace,
) -> Result<Attribution, XaiError> {
    explainer
        .direct(&explain_context(entry, x, seed), ws)
        .map(|attr| entry.share_names(attr))
}

/// Drops deadline-expired jobs and answers queue-time cache hits, returning
/// the jobs that still need computing. Every job that exits here resolves
/// its single-flight entry (expired → `None`, hit → the attribution), so
/// followers are never left waiting on a job that will not run.
fn prefilter(group: Vec<Job>, ctx: &WorkerContext, now: Instant) -> Vec<Job> {
    let mut live: Vec<Job> = Vec::with_capacity(group.len());
    for job in group {
        // Drop requests whose budget burned away in the queue: answering
        // late is worse than answering "no" (the caller's deadline passed).
        let waited = now.duration_since(job.admitted);
        if waited > job.request.budget {
            ctx.metrics
                .rejected_deadline_expired
                .fetch_add(1, Ordering::Relaxed);
            ctx.cache.complete_flight(&job.key, None);
            let _ = job
                .respond
                .send(Err(ServeError::Rejected(RejectReason::DeadlineExpired {
                    waited_us: waited.as_micros().min(u64::MAX as u128) as u64,
                    budget_us: job.request.budget.as_micros().min(u64::MAX as u128) as u64,
                })));
            continue;
        }
        // Re-check the cache: an identical request may have been explained
        // while this one sat in the queue.
        if let Some((attr, fidelity)) = ctx.cache.get(&job.key) {
            ctx.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            if matches!(
                fidelity,
                Fidelity::Quantized { .. } | Fidelity::CoarseQuantized { .. }
            ) {
                ctx.metrics.quantized_hits.fetch_add(1, Ordering::Relaxed);
            }
            ctx.metrics.completed.fetch_add(1, Ordering::Relaxed);
            ctx.metrics.queue_wait.record(waited);
            ctx.metrics.total.record(waited);
            ctx.cache
                .complete_flight(&job.key, Some((Arc::clone(&attr), fidelity)));
            let _ = job.respond.send(Ok(ExplainResponse {
                attribution: attr,
                model_version: job.key.model_version,
                cache_hit: true,
                batch_size: 1,
                queue_wait: waited,
                service_time: Duration::ZERO,
                fidelity,
            }));
            continue;
        }
        live.push(job);
    }
    live
}

/// Answers one job that produced `result`: fills the cache, resolves the
/// job's single-flight entry, records latency metrics, and responds.
fn deliver(
    job: Job,
    result: Result<Attribution, XaiError>,
    batch_size: usize,
    service: Duration,
    now: Instant,
    ctx: &WorkerContext,
) {
    match result {
        Ok(attr) => {
            let attr = Arc::new(attr);
            // Workers always run the full budget, so this insert is a
            // full-grade write: it upgrades any coarse anytime entry for
            // the same key in place.
            ctx.cache.insert(job.key.clone(), Arc::clone(&attr));
            ctx.cache
                .complete_flight(&job.key, Some((Arc::clone(&attr), Fidelity::Exact)));
            let waited = now.duration_since(job.admitted);
            ctx.metrics.queue_wait.record(waited);
            ctx.metrics.service.record(service);
            ctx.metrics.total.record(waited + service);
            ctx.metrics.completed.fetch_add(1, Ordering::Relaxed);
            let _ = job.respond.send(Ok(ExplainResponse {
                attribution: attr,
                model_version: job.key.model_version,
                cache_hit: false,
                batch_size,
                queue_wait: waited,
                service_time: service,
                fidelity: Fidelity::Exact,
            }));
        }
        Err(e) => {
            ctx.metrics.explain_errors.fetch_add(1, Ordering::Relaxed);
            ctx.cache.complete_flight(&job.key, None);
            let _ = job.respond.send(Err(ServeError::Explain(e)));
        }
    }
}

/// Executes one *compatible* group (same model, version, and method) that
/// is not stacking into a shared block: explain jobs one by one against
/// the shared entry, each through the `direct()` of the explainer it was
/// admitted with.
fn execute_compatible(live: Vec<Job>, ctx: &WorkerContext, ws: &mut CoalitionWorkspace) {
    let now = Instant::now();
    ctx.metrics.record_batch(live.len());
    ctx.metrics
        .cache_misses
        .fetch_add(live.len() as u64, Ordering::Relaxed);

    // Compatibility groups share (model id, version, method), so entry
    // and service class are group-wide constants.
    let entry = Arc::clone(&live[0].entry);
    let class = service_class_key(live[0].key.model_version, live[0].key.method);

    // Explain in admission order, straight off each job's own feature
    // buffer — no instance/name/seed staging vectors. The worker arena is
    // threaded through, and a failure is scoped to its own request instead
    // of failing the whole group.
    let t0 = Instant::now();
    let results: Vec<Result<Attribution, XaiError>> = live
        .iter()
        .map(|job| {
            let seed = request_seed(ctx.seed, job.key.stable_hash());
            explain_one(
                &entry,
                &*job.explainer,
                &job.request.features,
                seed,
                &mut *ws,
            )
        })
        .collect();
    let service = t0.elapsed();
    let per_request_ns = (service.as_nanos() / live.len() as u128).min(u64::MAX as u128) as u64;
    ctx.metrics.observe_service_class_ns(class, per_request_ns);

    let batch_size = live.len();
    for (job, result) in live.into_iter().zip(results) {
        deliver(job, result, batch_size, service, now, ctx);
    }
}

/// Hard per-block row cap: [`execute_fused`] flushes (evaluates and
/// finishes the jobs planned so far) on reaching it, bounding the arena's
/// high-water mark at this plus one plan's rows.
const MAX_FUSED_ROWS: usize = 16_384;

/// The fusion scheduler: one *model* group (same model id + version,
/// methods mixed). Two or more jobs whose explainers are plan-capable —
/// the whole Shapley family, per-instance permutation and LIME — are
/// planned into the shared [`FusedBlock`] and evaluated by a single
/// `predict_block` call spanning every request's rows. A lone one has
/// nothing to stack with and runs `direct()`, the same pipeline on the
/// workspace's block; non-fusable methods (TreeSHAP, `interactions`) run
/// `direct()` too.
///
/// Determinism: a plan's rows and its reduction do not depend on what else
/// is in the block, and the block evaluates each row with the same
/// row-pure kernel — so an answer has the same bits however its request
/// was grouped (enforced by core property tests and the serve integration
/// tests).
fn process_model_group(
    group: Vec<Job>,
    ctx: &WorkerContext,
    ws: &mut CoalitionWorkspace,
    block: &mut FusedBlock,
) {
    let live = prefilter(group, ctx, Instant::now());
    let (fusable, rest): (Vec<Job>, Vec<Job>) =
        live.into_iter().partition(|job| job.explainer.fusable());
    let mut alone = if fusable.len() >= 2 {
        execute_fused(fusable, ctx, ws, block);
        Vec::new()
    } else {
        fusable
    };
    alone.extend(rest);
    for g in group_compatible(alone) {
        execute_compatible(g, ctx, ws);
    }
}

/// Plans every job in `jobs` into the shared block via its own explainer,
/// flushing (evaluate + finish) whenever the stacked rows reach
/// [`MAX_FUSED_ROWS`] (a plan is appended before the check).
fn execute_fused(
    jobs: Vec<Job>,
    ctx: &WorkerContext,
    ws: &mut CoalitionWorkspace,
    block: &mut FusedBlock,
) {
    let entry = Arc::clone(&jobs[0].entry);
    let mut pending: Vec<(Job, Box<dyn ExplainPlan>)> = Vec::with_capacity(jobs.len());
    block.clear();
    for job in jobs {
        let planned = {
            let seed = request_seed(ctx.seed, job.key.stable_hash());
            let ectx = explain_context(&entry, &job.request.features, seed);
            job.explainer.plan(&ectx, &mut *ws, &mut *block)
        };
        match planned {
            Ok(plan) => pending.push((job, plan)),
            // A plan failure (zero budget, malformed input) is scoped to
            // its own request: the rest of the group still fuses.
            Err(e) => {
                ctx.metrics.explain_errors.fetch_add(1, Ordering::Relaxed);
                ctx.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
                ctx.cache.complete_flight(&job.key, None);
                let _ = job.respond.send(Err(ServeError::Explain(e)));
            }
        }
        if block.n_rows() >= MAX_FUSED_ROWS {
            flush_fused(&mut pending, block, &entry, ctx);
        }
    }
    flush_fused(&mut pending, block, &entry, ctx);
}

/// Evaluates the shared block once and finishes every pending plan against
/// it, then delivers. Service time is attributed to each request in
/// proportion to its share of the block's rows (its actual footprint in
/// the fused evaluation), keeping per-class EWMAs honest when budgets mix.
fn flush_fused(
    pending: &mut Vec<(Job, Box<dyn ExplainPlan>)>,
    block: &mut FusedBlock,
    entry: &ModelEntry,
    ctx: &WorkerContext,
) {
    if pending.is_empty() {
        block.clear();
        return;
    }
    let now = Instant::now();
    let n = pending.len();
    let total_rows = block.n_rows();
    ctx.metrics.record_batch(n);
    ctx.metrics
        .cache_misses
        .fetch_add(n as u64, Ordering::Relaxed);
    if n >= 2 {
        ctx.metrics.record_fused_group(n, total_rows);
    }

    let t0 = Instant::now();
    block.evaluate(entry.explain_regressor());
    ctx.metrics
        .dedup_rows_saved
        .fetch_add(block.last_dedup_saved() as u64, Ordering::Relaxed);
    let results: Vec<Result<Attribution, XaiError>> = pending
        .iter()
        .map(|(_, plan)| {
            plan.finish(block, &entry.feature_names)
                .map(|attr| entry.share_names(attr))
        })
        .collect();
    let service = t0.elapsed();
    let service_ns = service.as_nanos().min(u64::MAX as u128) as u64;

    for ((job, plan), result) in pending.drain(..).zip(results) {
        let job_ns = if total_rows > 0 {
            (service_ns as u128 * plan.n_rows() as u128 / total_rows as u128) as u64
        } else {
            service_ns / n as u64
        };
        let class = service_class_key(job.key.model_version, job.key.method);
        ctx.metrics.observe_service_class_ns(class, job_ns);
        deliver(job, result, n, Duration::from_nanos(job_ns), now, ctx);
    }
    block.clear();
}
