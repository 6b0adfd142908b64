//! Worker threads: take what is queued, plan it into one shared block, run
//! the explainers, fill the cache, and answer the waiting clients and the
//! identical requests parked on their flights. These are the serving
//! crate's only threads, and the only ones that wait on or run a
//! computation (the anytime coarse answer aside): an anytime refinement is
//! a queued job like any other, one that answers nobody.
//!
//! One pipeline. A worker takes the backlog it finds (never waiting for
//! companions) and splits it by model. Every live job of a model group —
//! methods and budgets mixed, a group of one included — plans into the
//! worker's [`FusedBlock`] through its own [`Explainer::plan`]; the block is
//! evaluated by one `predict_block` call and each plan is finished. A job
//! whose plan refuses (TreeSHAP, `interactions`, an exact or grouped
//! enumeration past the workspace chunk, a malformed request) runs alone
//! through `direct()` on the worker's workspace. That refusal is the only
//! routing signal: a job's method resolves to a `Box<dyn Explainer>` once,
//! on the worker that plans it (via
//! [`crate::registry::ModelEntry::explainer`], the plug-in factory, under
//! [`contain`]), and no per-method `match` exists here, so a method added
//! to the registry is served and fused with no scheduler change.
//!
//! Determinism: stochastic explainers get a seed derived from the request's
//! *content* (cache key hash mixed with the engine seed), never from
//! arrival order, thread id, or batch composition; a plan's rows and its
//! reduction do not depend on what else is in the block, and the default
//! `direct()` is plan → evaluate → finish on a block of one. The same
//! request therefore has the same bits however it was batched.
//!
//! Exits: every gathered job leaves through [`deliver`] exactly once — a
//! deadline drop, a computed answer or an error — which settles its
//! single-flight entry, the in-flight count and its reply (a refinement has
//! nobody to reply to). A computed answer fills the cache and goes to every
//! follower parked on the flight, in one step of the cache; without one,
//! the flight passes to its first follower, which the next worker cycle
//! computes. A worker does not look the cache up: a queued job leads its
//! key's flight, so no identical request is answered or computed beside
//! it. A panic in explainer code is contained and answers the jobs it took
//! down with [`ServeError::Internal`]; a job dropped unanswered (an unwind
//! nothing contained) is answered the same way by its [`Owed`] guard, so no
//! exit strands a single-flight follower.
//!
//! Allocation: each worker owns one [`CoalitionWorkspace`] and one
//! [`FusedBlock`] for its whole lifetime, reused verbatim once grown (and
//! reset only after a contained panic), so steady-state serving does not
//! allocate on the coalition hot path. Models are evaluated through
//! [`crate::registry::ModelEntry::explain_regressor`] (the packed SoA
//! engine for tree ensembles).

use crate::cache::ShardedCache;
use crate::engine::Outcome;
use crate::error::{RejectReason, ServeError};
use crate::metrics::Metrics;
use crate::queue::Job;
use crate::registry::ModelEntry;
use crate::request::{request_seed, service_class_key, ExplainResponse, Fidelity};
use crossbeam::channel::Receiver;
use nfv_xai::prelude::*;
use parking_lot::Mutex;
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
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
    /// Workers sharing the queue; a worker takes its share of the backlog.
    pub workers: usize,
    /// Engine seed mixed into every per-request explainer seed.
    pub seed: u64,
    /// Dequeued-but-unanswered job count, shared with admission control
    /// (see [`crate::queue::JobQueue::in_flight_handle`]).
    pub in_flight: Arc<AtomicU64>,
    /// Followers handed a flight whose leader ended without an answer;
    /// the next worker cycle computes them before it takes from the queue.
    pub passed: Mutex<Vec<Job>>,
}

/// Spawns `ctx.workers` worker threads consuming `rx`. Threads exit when
/// every sender is dropped and the queue drains.
pub fn spawn_workers(rx: Receiver<Job>, ctx: Arc<WorkerContext>) -> Vec<JoinHandle<()>> {
    (0..ctx.workers.max(1))
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
    // The worker's arenas persist across every batch this thread serves,
    // which is what makes steady state allocation-free. Seeding keeps
    // results independent of which worker got the job.
    let mut ws = CoalitionWorkspace::default();
    let mut block = FusedBlock::default();
    loop {
        let passed = std::mem::take(&mut *ctx.passed.lock());
        let batch = if !passed.is_empty() {
            passed
        } else if let Ok(first) = rx.recv() {
            gather(
                &rx,
                first,
                ctx.max_batch.min(share(rx.len() + 1, ctx.workers)),
            )
        } else {
            break;
        };
        // Everything gathered is now invisible to the channel length;
        // count it as in-flight until `deliver` answers it, so admission
        // keeps seeing the work.
        ctx.in_flight
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        ctx.metrics.record_batch(batch.len());
        // From here on every job is owed an answer, whatever unwinds.
        let groups: Vec<Vec<Owed<'_>>> = group_same_model(batch)
            .into_iter()
            .map(|group| group.into_iter().map(|job| Owed::new(job, &ctx)).collect())
            .collect();
        for group in groups {
            process_model_group(group, &ctx, &mut ws, &mut block);
        }
    }
}

/// One worker cycle's batch: `first` plus whatever is already queued behind
/// it, up to `max_batch` jobs in FIFO order. Batches form from backlog,
/// never from a timer: this never blocks — the queued jobs are taken under
/// one lock acquisition of the channel — so a request that finds an idle
/// worker starts at once.
fn gather(rx: &Receiver<Job>, first: Job, max_batch: usize) -> Vec<Job> {
    let mut jobs = vec![first];
    rx.try_recv_many(max_batch.saturating_sub(1), &mut jobs);
    jobs
}

/// A worker's share of a backlog of `queued` jobs: an equal part per
/// worker, rounded up. A worker that took the whole backlog would answer
/// every job of it only after the slowest; leaving the rest to the next
/// free worker keeps a deep backlog (a pipelined wire connection holds 16)
/// from turning into one long batch while another worker idles.
fn share(queued: usize, workers: usize) -> usize {
    queued.div_ceil(workers.max(1))
}

/// Splits a gathered batch by model identity — same model id and version,
/// methods mixed — preserving first-seen order. Every job in a group shares
/// one `Regressor`, so their plans can stack into one block.
fn group_same_model(jobs: Vec<Job>) -> Vec<Vec<Job>> {
    let mut groups: Vec<Vec<Job>> = Vec::new();
    for job in jobs {
        let slot = groups.iter_mut().find(|g| {
            let k = &g[0].key;
            k.model_id == job.key.model_id && k.model_version == job.key.model_version
        });
        match slot {
            Some(g) => g.push(job),
            None => groups.push(vec![job]),
        }
    }
    groups
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

/// Runs one explanation end to end through the explainer's `direct()`: a
/// job whose plan refused, and the engine's inline coarse compute on the
/// anytime path.
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

/// Runs plug-in code — a `plan`, `finish` or `direct`, the model under
/// `evaluate`, or the engine's inline coarse compute with its factory —
/// with its unwind contained: a panic becomes [`ServeError::Internal`] for
/// the job it took down, and the thread lives on. An explainer's own error
/// stays [`ServeError::Explain`].
pub(crate) fn contain<T, E: Into<ServeError>>(
    f: impl FnOnce() -> Result<T, E>,
) -> Result<T, ServeError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result.map_err(Into::into),
        Err(payload) => {
            let what = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("no message");
            Err(ServeError::Internal(format!("explainer panicked: {what}")))
        }
    }
}

/// A gathered job the worker still owes an answer. [`Owed::answer`] hands
/// it to [`deliver`]; one dropped unanswered is answered `Internal` through
/// the same `deliver` on the way out.
struct Owed<'a> {
    /// `None` once answered.
    job: Option<Job>,
    ctx: &'a WorkerContext,
}

impl<'a> Owed<'a> {
    fn new(job: Job, ctx: &'a WorkerContext) -> Self {
        Owed {
            job: Some(job),
            ctx,
        }
    }

    fn answer(mut self, outcome: Outcome) {
        if let Some(job) = self.job.take() {
            deliver(job, outcome, self.ctx);
        }
    }

    /// Answers a job its explainer ran for and feeds its service time to
    /// its class estimate; [`deliver`] fills the cache with the answer.
    fn computed(
        self,
        result: Result<Attribution, ServeError>,
        batch_size: usize,
        service: Duration,
        now: Instant,
    ) {
        let class = service_class_key(self.key.model_version, self.key.method);
        self.ctx
            .metrics
            .observe_service_class_ns(class, nanos(service));
        let outcome = result.map(|attr| ExplainResponse {
            attribution: Arc::new(attr),
            model_version: self.key.model_version,
            cache_hit: false,
            batch_size,
            queue_wait: now.duration_since(self.admitted),
            service_time: service,
            fidelity: Fidelity::Exact,
        });
        self.answer(outcome);
    }
}

impl Deref for Owed<'_> {
    type Target = Job;
    fn deref(&self) -> &Job {
        self.job
            .as_ref()
            .expect("an owed job is read before it is answered")
    }
}

impl Drop for Owed<'_> {
    fn drop(&mut self) {
        if let Some(job) = self.job.take() {
            let dropped = ServeError::Internal("the worker dropped the job unanswered".into());
            deliver(job, Err(dropped), self.ctx);
        }
    }
}

/// The one exit of a gathered job: settles its single-flight entry (an
/// answer fills the cache and goes to every parked follower; without one,
/// the flight passes to the first follower, queued for the next worker
/// cycle), books the outcome, settles the in-flight count and replies. A
/// refinement (no reply) books only `refined_entries` when it computed or
/// `explain_errors` when it failed: the client counters and latency
/// histograms count client requests.
fn deliver(job: Job, outcome: Outcome, ctx: &WorkerContext) {
    let m = &ctx.metrics;
    match &outcome {
        // A worker runs the full budget: its fill upgrades a coarse entry
        // in place, which is all a refinement is for.
        Ok(resp) => share_flight(ctx.cache.fill(job.key.clone(), resp), m, resp),
        Err(_) => {
            if let Some(next) = ctx.cache.pass_flight(&job.key) {
                ctx.passed.lock().push(next);
            }
        }
    }
    match (&outcome, &job.respond) {
        (Ok(resp), Some(_)) => {
            m.completed.fetch_add(1, Ordering::Relaxed);
            m.queue_wait.record(resp.queue_wait);
            m.service.record(resp.service_time);
            m.total.record(resp.queue_wait + resp.service_time);
        }
        (Ok(_), None) => {
            m.refined_entries.fetch_add(1, Ordering::Relaxed);
        }
        (Err(e), _) => {
            let counter = if e.is_reject() {
                &m.rejected_deadline_expired
            } else {
                &m.explain_errors
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }
    ctx.in_flight.fetch_sub(1, Ordering::Relaxed);
    job.answer(outcome);
}

/// Answers the followers a fill released with their leader's `answer`: a
/// single-flight hit, timed from the follower's own admission. A follower
/// is answered whenever its leader's answer lands, past its own budget too
/// — no timer runs for it, and the answer costs nothing more.
pub(crate) fn share_flight(followers: Vec<Job>, m: &Metrics, answer: &ExplainResponse) {
    for follower in followers {
        m.single_flight_hits.fetch_add(1, Ordering::Relaxed);
        m.completed.fetch_add(1, Ordering::Relaxed);
        m.total.record(follower.admitted.elapsed());
        let attribution = Arc::clone(&answer.attribution);
        follower.answer(Ok(ExplainResponse::hit(
            attribution,
            answer.model_version,
            answer.fidelity,
        )));
    }
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// Drops the jobs whose budget burned away in the queue, returning the rest:
/// answering late is worse than answering "no" (the caller's deadline
/// passed).
fn drop_expired<'a>(group: Vec<Owed<'a>>, now: Instant) -> Vec<Owed<'a>> {
    let mut live = Vec::with_capacity(group.len());
    for job in group {
        let waited = now.duration_since(job.admitted);
        let budget = job.request.budget;
        if waited > budget {
            job.answer(Err(ServeError::Rejected(RejectReason::DeadlineExpired {
                waited_us: nanos(waited) / 1_000,
                budget_us: nanos(budget) / 1_000,
            })));
        } else {
            live.push(job);
        }
    }
    live
}

/// Hard per-block row cap: a group flushes (evaluates and finishes the jobs
/// planned so far) on reaching it, bounding the arena's high-water mark at
/// this plus one plan's rows.
const MAX_FUSED_ROWS: usize = 16_384;

/// Serves one model group (same model id + version, methods mixed): plans
/// every live job into the shared block, flushing whenever the stacked rows
/// reach [`MAX_FUSED_ROWS`] (a plan is appended before the check), then
/// runs the jobs whose plan refused alone. A refusal, an error or a panic
/// is scoped to its own request: the rest of the group still stacks.
fn process_model_group(
    group: Vec<Owed<'_>>,
    ctx: &WorkerContext,
    ws: &mut CoalitionWorkspace,
    block: &mut FusedBlock,
) {
    let live = drop_expired(group, Instant::now());
    let Some(first) = live.first() else {
        return;
    };
    let entry = Arc::clone(&first.entry);
    let clients = live.iter().filter(|job| job.respond.is_some()).count();
    ctx.metrics
        .cache_misses
        .fetch_add(clients as u64, Ordering::Relaxed);
    let mut pending: Vec<(Owed<'_>, Box<dyn ExplainPlan>)> = Vec::with_capacity(live.len());
    let mut alone = Vec::new();
    block.clear();
    for job in live {
        // The method's factory is plug-in code: an error or a panic in it
        // answers this job alone.
        let explainer = match contain(|| entry.explainer(job.request.method)) {
            Ok(explainer) => explainer,
            Err(e) => {
                job.answer(Err(e));
                continue;
            }
        };
        let seed = request_seed(ctx.seed, job.key.stable_hash());
        let planned = contain(|| {
            let ectx = explain_context(&entry, &job.request.features, seed);
            explainer.plan(&ectx, ws, block)
        });
        match planned {
            Ok(plan) => pending.push((job, plan)),
            Err(ServeError::Explain(_)) => alone.push((job, explainer)),
            Err(panic) => {
                // The panicking plan may have left rows behind. The plans
                // before it own intact row ranges and rows are evaluated
                // row-purely, so they finish as usual; the flush clears the
                // block and the workspace starts afresh.
                job.answer(Err(panic));
                flush(&mut pending, block, &entry, ctx);
                *ws = CoalitionWorkspace::default();
            }
        }
        if block.n_rows() >= MAX_FUSED_ROWS {
            flush(&mut pending, block, &entry, ctx);
        }
    }
    flush(&mut pending, block, &entry, ctx);
    for (job, explainer) in alone {
        run_alone(job, &*explainer, &entry, ctx, ws);
    }
}

/// Evaluates the shared block once (an empty one too: it costs nothing),
/// finishes every pending plan against it and answers each job, then clears
/// the block. Service time is attributed
/// to each request in proportion to its share of the block's rows (its
/// footprint in the evaluation), keeping per-class EWMAs honest when
/// budgets mix.
fn flush(
    pending: &mut Vec<(Owed<'_>, Box<dyn ExplainPlan>)>,
    block: &mut FusedBlock,
    entry: &ModelEntry,
    ctx: &WorkerContext,
) {
    let n = pending.len();
    let total_rows = block.n_rows();
    if n >= 2 {
        ctx.metrics.record_fused_group(n, total_rows);
    }
    let now = Instant::now();
    let evaluated = contain(|| {
        block.evaluate(entry.explain_regressor());
        Ok::<_, XaiError>(())
    });
    let results: Vec<Result<Attribution, ServeError>> = match evaluated {
        Ok(()) => {
            ctx.metrics
                .dedup_rows_saved
                .fetch_add(block.last_dedup_saved() as u64, Ordering::Relaxed);
            pending
                .iter()
                .map(|(_, plan)| {
                    contain(|| plan.finish(block, &entry.feature_names))
                        .map(|attr| entry.share_names(attr))
                })
                .collect()
        }
        // The model itself panicked: every plan in the block went down,
        // and the block starts afresh.
        Err(panic) => {
            *block = FusedBlock::default();
            vec![Err(panic); n]
        }
    };
    let service_ns = nanos(now.elapsed());
    for ((job, plan), result) in pending.drain(..).zip(results) {
        let job_ns = if total_rows > 0 {
            (service_ns as u128 * plan.n_rows() as u128 / total_rows as u128) as u64
        } else {
            service_ns / n as u64
        };
        job.computed(result, n, Duration::from_nanos(job_ns), now);
    }
    block.clear();
}

/// Explains a job whose plan refused through its explainer's `direct()` on
/// the worker's workspace: alone, `batch_size` 1, timed alone.
fn run_alone(
    job: Owed<'_>,
    explainer: &dyn Explainer,
    entry: &ModelEntry,
    ctx: &WorkerContext,
    ws: &mut CoalitionWorkspace,
) {
    let now = Instant::now();
    let seed = request_seed(ctx.seed, job.key.stable_hash());
    let result = contain(|| explain_one(entry, explainer, &job.request.features, seed, ws));
    if matches!(result, Err(ServeError::Internal(_))) {
        // The unwind may have left the workspace mid-write.
        *ws = CoalitionWorkspace::default();
    }
    job.computed(result, 1, now.elapsed(), now);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Joined;
    use crate::queue;
    use crate::request::ExplainMethod;

    /// A job of `method` on model `model_id` v`version`; its answer is dropped.
    fn job_for(model_id: &str, version: u64, method: ExplainMethod) -> Job {
        queue::job_for(model_id, version, method).0
    }

    #[test]
    fn a_job_dropped_unanswered_still_answers_and_passes_its_flight() {
        let ctx = context();
        ctx.in_flight.store(1, Ordering::Relaxed);
        let (job, reply) = queue::job_for("a", 1, ExplainMethod::Permutation);
        let Joined::Lead(job) = ctx.cache.join(job) else {
            panic!("the first miss leads");
        };
        let (follower, follower_reply) = queue::job_for("a", 1, ExplainMethod::Permutation);
        assert!(
            matches!(ctx.cache.join(follower), Joined::Parked),
            "an identical miss parks on the leader's flight"
        );
        // What an unwind through the worker does to a job it holds.
        drop(Owed::new(job, &ctx));
        assert!(matches!(reply.try_recv(), Ok(Err(ServeError::Internal(_)))));
        let passed = std::mem::take(&mut *ctx.passed.lock());
        assert_eq!(passed.len(), 1, "the follower is handed to the next cycle");
        assert!(
            follower_reply.try_recv().is_err(),
            "and is not answered yet"
        );
        assert_eq!(ctx.cache.flights_in_progress(), 1, "it holds the flight");
        assert_eq!(ctx.in_flight.load(Ordering::Relaxed), 0);
        assert_eq!(ctx.metrics.explain_errors.load(Ordering::Relaxed), 1);
        // The next cycle computes it and ends the flight.
        serve(passed, &ctx);
        let resp = follower_reply.try_recv().unwrap().unwrap();
        assert!(!resp.cache_hit);
        assert_eq!(ctx.cache.flights_in_progress(), 0);
    }

    fn context() -> WorkerContext {
        WorkerContext {
            cache: Arc::new(crate::cache::ShardedCache::new(16, 0, 1)),
            metrics: Arc::new(Metrics::new()),
            max_batch: 16,
            workers: 1,
            seed: 0,
            in_flight: Arc::new(AtomicU64::new(0)),
            passed: Default::default(),
        }
    }

    /// Serves `jobs` as one gathered model group, the way `worker_loop` does.
    fn serve(jobs: Vec<Job>, ctx: &WorkerContext) {
        ctx.in_flight
            .fetch_add(jobs.len() as u64, Ordering::Relaxed);
        let group = jobs.into_iter().map(|job| Owed::new(job, ctx)).collect();
        let mut ws = CoalitionWorkspace::default();
        process_model_group(group, ctx, &mut ws, &mut FusedBlock::default());
    }

    /// A coarse entry planted under `job`'s key, as the anytime path leaves.
    fn plant_coarse(ctx: &WorkerContext, job: &Job) {
        let explainer = job.entry.explainer(job.request.method).unwrap();
        let coarse = explainer.direct(
            &explain_context(&job.entry, &job.request.features, 1),
            &mut CoalitionWorkspace::default(),
        );
        let sample_budget = 2;
        let coarse = ExplainResponse::hit(
            Arc::new(coarse.unwrap()),
            1,
            Fidelity::Coarse { sample_budget },
        );
        ctx.cache.fill(job.key.clone(), &coarse);
        let (_, fidelity) = ctx.cache.get(&job.key).unwrap();
        assert_eq!(fidelity, Fidelity::Coarse { sample_budget: 2 });
    }

    #[test]
    fn a_queued_job_treats_a_coarse_entry_as_a_miss_and_upgrades_it() {
        let ctx = context();
        let (job, reply) = queue::job_for("a", 1, ExplainMethod::KernelShap { n_coalitions: 16 });
        let key = job.key.clone();
        plant_coarse(&ctx, &job);
        serve(vec![job], &ctx);
        let resp = reply.try_recv().unwrap().unwrap();
        assert_eq!(resp.fidelity, Fidelity::Exact);
        assert!(
            !resp.cache_hit,
            "a worker answers from a full-grade entry only"
        );
        let (cached, fidelity) = ctx.cache.get(&key).unwrap();
        assert_eq!(fidelity, Fidelity::Exact, "upgraded in place");
        assert_eq!(cached, resp.attribution);
        let stats = ctx.metrics.snapshot();
        assert_eq!((stats.cache_misses, stats.cache_hits), (1, 0));
        assert_eq!((stats.completed, stats.refined_entries), (1, 0));
    }

    #[test]
    fn a_job_that_answers_nobody_books_only_its_refinement() {
        let ctx = context();
        let method = ExplainMethod::KernelShap { n_coalitions: 16 };
        let mut refine = job_for("a", 1, method);
        refine.respond = None;
        let key = refine.key.clone();
        plant_coarse(&ctx, &refine);
        // The refinement holds the key's flight: a second refinement joins
        // nothing. Once the coarse entry ages out, a client miss parks on
        // the refinement's flight (while it stands, a join answers it).
        assert!(ctx.cache.lead_refinement(&key));
        assert!(!ctx.cache.lead_refinement(&key));
        ctx.cache.invalidate_model("a");
        let (follower, follower_reply) = queue::job_for("a", 1, method);
        assert!(matches!(ctx.cache.join(follower), Joined::Parked));
        serve(vec![refine], &ctx);
        let (cached, fidelity) = ctx.cache.get(&key).unwrap();
        assert_eq!(fidelity, Fidelity::Exact, "the refinement's full entry");
        let shared = follower_reply.try_recv().unwrap().unwrap();
        assert_eq!(
            (shared.attribution, shared.fidelity),
            (cached, Fidelity::Exact)
        );
        assert_eq!(ctx.cache.flights_in_progress(), 0);
        assert_eq!(ctx.in_flight.load(Ordering::Relaxed), 0);
        // The now-full key leads no second refinement.
        assert!(!ctx.cache.lead_refinement(&key));
        assert_eq!(ctx.cache.flights_in_progress(), 0);
        let m = &ctx.metrics;
        let stats = m.snapshot();
        assert_eq!(stats.refined_entries, 1);
        assert_eq!(stats.explain_errors, 0);
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 0));
        for histogram in [&m.queue_wait, &m.service] {
            assert_eq!(histogram.count(), 0, "latency counts client requests");
        }
        // The parked client is the only request answered: a single-flight
        // hit, timed from its own admission.
        assert_eq!((stats.completed, stats.single_flight_hits), (1, 1));
        assert_eq!(m.total.count(), 1);
    }

    #[test]
    fn model_grouping_merges_methods() {
        let ks = ExplainMethod::KernelShap { n_coalitions: 8 };
        let jobs = vec![
            job_for("a", 1, ks),
            job_for("a", 1, ExplainMethod::KernelShap { n_coalitions: 16 }),
            job_for("b", 1, ks),
            job_for("a", 2, ks),
            job_for("a", 1, ExplainMethod::Lime { n_samples: 8 }),
        ];
        let groups = group_same_model(jobs);
        assert_eq!(groups.len(), 3, "split on (id, version) only");
        assert_eq!(groups[0].len(), 3, "methods fuse within a model group");
        assert_eq!(groups[1][0].request.model_id, "b");
        assert_eq!(groups[2][0].key.model_version, 2);
    }

    #[test]
    fn a_worker_takes_an_equal_share_of_the_backlog_rounded_up() {
        assert_eq!(share(16, 2), 8);
        assert_eq!(share(3, 2), 2);
        assert_eq!(share(1, 2), 1);
        assert_eq!(share(20, 1), 20, "a lone worker takes it all");
        assert_eq!(share(5, 0), 5);
    }

    #[test]
    fn gather_on_an_empty_channel_is_a_singleton_and_does_not_block() {
        let (_tx, rx) = crossbeam::channel::bounded::<Job>(4);
        let ks = ExplainMethod::KernelShap { n_coalitions: 8 };
        // A fusable first job on an idle queue: nothing to wait for. (A
        // blocking gather would hang here — the sender is alive.)
        let batch = gather(&rx, job_for("a", 1, ks), 16);
        assert_eq!(batch.len(), 1);
        assert!(rx.is_empty());
    }

    #[test]
    fn gather_takes_the_backlog_in_fifo_order_up_to_max_batch() {
        let (tx, rx) = crossbeam::channel::bounded::<Job>(32);
        let ks = ExplainMethod::KernelShap { n_coalitions: 8 };
        // A backlog of 20, tagged by version so order is observable.
        for v in 1..=20 {
            assert!(tx.send(job_for("a", v, ks)).is_ok());
        }
        let versions =
            |batch: &[Job]| -> Vec<u64> { batch.iter().map(|j| j.key.model_version).collect() };
        let batch = gather(&rx, rx.recv().unwrap(), 16);
        assert_eq!(versions(&batch), (1..=16).collect::<Vec<u64>>());
        let batch = gather(&rx, rx.recv().unwrap(), 16);
        assert_eq!(versions(&batch), (17..=20).collect::<Vec<u64>>());
        assert!(rx.is_empty());
        // `max_batch` 0 and 1 both mean singletons; the queue keeps the rest.
        assert!(tx.send(job_for("a", 21, ks)).is_ok());
        for max_batch in [0, 1] {
            assert_eq!(gather(&rx, job_for("a", 1, ks), max_batch).len(), 1);
        }
        assert_eq!(rx.len(), 1);
    }
}
