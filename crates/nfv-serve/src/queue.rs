//! The bounded admission queue: a crossbeam MPMC channel wrapped with
//! reject-don't-block semantics and a deadline-feasibility check.

use crate::cache::CacheKey;
use crate::error::{RejectReason, ServeError};
use crate::metrics::Metrics;
use crate::registry::ModelEntry;
use crate::request::{service_class_key, ExplainRequest, ExplainResponse};
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use nfv_xai::prelude::Explainer;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One admitted unit of work travelling from client thread to worker.
pub struct Job {
    /// The original request.
    pub request: ExplainRequest,
    /// Resolved registry entry (pinned: a concurrent re-registration does
    /// not change what this job is explained against).
    pub entry: Arc<ModelEntry>,
    /// Cache identity (also the seed source).
    pub key: CacheKey,
    /// The request's method, resolved against `entry` once, at admission;
    /// the worker plans it into its block or runs it alone.
    pub explainer: Box<dyn Explainer>,
    /// When the job was admitted (queue-wait measurement + deadline base).
    pub admitted: Instant,
    /// Where the worker sends the outcome; capacity 1, never blocks.
    /// `None` for an anytime refinement, which answers nobody: the worker
    /// only writes its full-grade entry over the coarse one.
    pub respond: Option<Sender<Result<ExplainResponse, ServeError>>>,
}

/// Consecutive deadline-unmeetable rejects of one service class before
/// admission lets a probe request through to resample the class EWMA.
/// Small enough that a poisoned estimate recovers within a handful of
/// requests; large enough that a genuinely overloaded class still sheds
/// ~87% of its doomed load.
pub const PROBE_AFTER: u64 = 8;

/// The bounded queue plus the admission logic in front of it.
pub struct JobQueue {
    tx: Sender<Job>,
    rx: Receiver<Job>,
    capacity: usize,
    workers: usize,
    /// Jobs pulled off the channel but not yet answered. Workers keep this
    /// current via [`JobQueue::in_flight_handle`]; without it, admission
    /// only sees the channel length and underestimates the backlog by up
    /// to one full batch per worker.
    in_flight: Arc<AtomicU64>,
}

impl JobQueue {
    /// Creates a queue of `capacity` jobs feeding `workers` workers.
    pub fn new(capacity: usize, workers: usize) -> Self {
        let capacity = capacity.max(1);
        let (tx, rx) = channel::bounded(capacity);
        JobQueue {
            tx,
            rx,
            capacity,
            workers: workers.max(1),
            in_flight: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The consuming end, for worker threads.
    pub fn receiver(&self) -> Receiver<Job> {
        self.rx.clone()
    }

    /// Shared in-flight counter. Workers `fetch_add` when they take jobs
    /// off the channel and `fetch_sub` once responses are sent, so
    /// admission sees dequeued-but-unfinished work.
    pub fn in_flight_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.in_flight)
    }

    /// Admission: feasibility check, then [`JobQueue::try_send`].
    ///
    /// Feasibility model: the backlog ahead of this request — everything
    /// still queued *plus* jobs workers have dequeued but not finished —
    /// is served by `workers` at the EWMA per-request service time of this
    /// request's (model-version, method) class, falling back to the global
    /// EWMA for classes never observed. Per-class pricing matters in mixed
    /// workloads: a global blend of cheap TreeSHAP and expensive KernelSHAP
    /// rejects feasible fast requests and admits doomed slow ones. The
    /// estimate is compared against the budget *remaining* at admission
    /// time (the budget runs from `Job.admitted`, which the caller stamps
    /// before any admission work). If even this optimistic estimate misses,
    /// reject now instead of making the caller discover it the slow way.
    ///
    /// Estimate recovery: a class EWMA poisoned by one slow outlier can
    /// reject every subsequent request of that class, and since rejected
    /// requests produce no service samples the estimate would stay wrong
    /// forever. Two mechanisms break the loop: every reject multiplicatively
    /// ages the class estimate (× 7/8), and after [`PROBE_AFTER`]
    /// consecutive rejects one probe request is admitted anyway so the
    /// class gets a fresh measurement.
    ///
    /// The rejected `Job` rides back boxed so the `Err` variant stays
    /// small on the (hot) `Ok` path; rejection is the cold path and can
    /// afford the allocation.
    pub fn admit(&self, job: Job, metrics: &Metrics) -> Result<(), (RejectReason, Box<Job>)> {
        let class = service_class_key(job.key.model_version, job.request.method);
        let ewma_ns = metrics.service_estimate_ns(class);
        if ewma_ns > 0 {
            let backlog = self.tx.len() as u64 + self.in_flight.load(Ordering::Relaxed);
            let est_ns = ewma_ns * (backlog / self.workers as u64 + 1);
            let budget_ns = job.request.budget.as_nanos().min(u64::MAX as u128) as u64;
            let spent_ns = job.admitted.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            let remaining_ns = budget_ns.saturating_sub(spent_ns);
            if est_ns > remaining_ns {
                let streak = metrics.note_class_reject(class);
                if streak > 0 && streak.is_multiple_of(PROBE_AFTER) {
                    // Probe: admit past the estimate so the worker can
                    // resample the class. The streak keeps counting, so
                    // a class that is genuinely too slow probes only once
                    // per PROBE_AFTER rejects, not on every request.
                    metrics.probe_admits.fetch_add(1, Ordering::Relaxed);
                } else {
                    return Err((
                        RejectReason::DeadlineUnmeetable {
                            estimated_us: est_ns / 1_000,
                            budget_us: remaining_ns / 1_000,
                        },
                        Box::new(job),
                    ));
                }
            } else {
                metrics.note_class_admit(class);
            }
        }
        self.try_send(job)
    }

    /// The non-blocking enqueue behind [`JobQueue::admit`], with no
    /// feasibility check: an anytime refinement, which nobody waits on,
    /// enters here directly.
    pub fn try_send(&self, job: Job) -> Result<(), (RejectReason, Box<Job>)> {
        match self.tx.try_send(job) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(job)) => Err((
                RejectReason::QueueFull {
                    capacity: self.capacity,
                },
                Box::new(job),
            )),
            Err(TrySendError::Disconnected(job)) => {
                Err((RejectReason::ShuttingDown, Box::new(job)))
            }
        }
    }

    /// Jobs currently queued.
    pub fn len(&self) -> usize {
        self.tx.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ExplainMethod;
    use nfv_ml::prelude::*;
    use nfv_xai::prelude::*;
    use std::time::Duration;

    fn test_job(budget: Duration) -> Job {
        test_job_with(ExplainMethod::KernelShap { n_coalitions: 8 }, budget)
    }

    fn test_job_with(method: ExplainMethod, budget: Duration) -> Job {
        let data = nfv_data::dataset::Dataset::new(
            vec!["a".into()],
            vec![0.0, 1.0],
            vec![0.0, 1.0],
            nfv_data::dataset::Task::Regression,
        )
        .unwrap();
        let model = LinearRegression::fit(&data, 1e-6).unwrap();
        let bg = Background::from_rows(vec![vec![0.0]]).unwrap();
        let entry = Arc::new(crate::registry::ModelEntry {
            model: crate::registry::ServeModel::Linear(model),
            version: 1,
            feature_names: ["a".to_string()].into(),
            background: bg,
            packed: None,
            expected_output: 0.0,
            groups: FeatureGroups::new(vec!["all".into()], vec![0]).unwrap(),
            trees: None,
        });
        let request = ExplainRequest {
            model_id: "m".into(),
            features: vec![0.5],
            method,
            budget,
        };
        let key = CacheKey::build("m", 1, request.method, &request.features, 1e-6).unwrap();
        let (respond, _keep) = channel::bounded(1);
        // Leak the receiver handle so sends would succeed if attempted.
        std::mem::forget(_keep);
        Job {
            explainer: entry.explainer(request.method).expect("method resolves"),
            request,
            entry,
            key,
            admitted: Instant::now(),
            respond: Some(respond),
        }
    }

    #[test]
    fn full_queue_rejects_instead_of_blocking() {
        let q = JobQueue::new(2, 1);
        let m = Metrics::new();
        assert!(q.admit(test_job(Duration::from_secs(1)), &m).is_ok());
        assert!(q.admit(test_job(Duration::from_secs(1)), &m).is_ok());
        let (reason, _) = q.admit(test_job(Duration::from_secs(1)), &m).unwrap_err();
        assert_eq!(reason, RejectReason::QueueFull { capacity: 2 });
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn infeasible_deadline_is_rejected_up_front() {
        let q = JobQueue::new(8, 1);
        let m = Metrics::new();
        // Teach the EWMA that one request costs ~10ms.
        m.observe_service_ns(10_000_000);
        let (reason, _) = q
            .admit(test_job(Duration::from_micros(50)), &m)
            .unwrap_err();
        assert!(
            matches!(reason, RejectReason::DeadlineUnmeetable { .. }),
            "{reason:?}"
        );
        // A generous budget is admitted.
        assert!(q.admit(test_job(Duration::from_secs(1)), &m).is_ok());
    }

    #[test]
    fn in_flight_work_counts_toward_the_backlog() {
        let q = JobQueue::new(8, 1);
        let m = Metrics::new();
        // One request costs ~10ms; the channel is empty but the single
        // worker is busy with 3 dequeued jobs → estimate (3/1 + 1) × 10ms
        // = 40ms, so a 25ms budget must be rejected. The old channel-only
        // backlog saw 0 queued and wrongly admitted.
        m.observe_service_ns(10_000_000);
        q.in_flight_handle().store(3, Ordering::Relaxed);
        assert_eq!(q.len(), 0, "nothing queued; pressure is all in-flight");
        let (reason, _) = q
            .admit(test_job(Duration::from_millis(25)), &m)
            .unwrap_err();
        assert!(
            matches!(reason, RejectReason::DeadlineUnmeetable { .. }),
            "{reason:?}"
        );
        // Enough budget for the same backlog is still admitted.
        assert!(q.admit(test_job(Duration::from_millis(200)), &m).is_ok());
        // Once the worker drains, the tight budget becomes feasible again.
        q.in_flight_handle().store(0, Ordering::Relaxed);
        assert!(q.admit(test_job(Duration::from_millis(25)), &m).is_ok());
    }

    #[test]
    fn mixed_workloads_are_priced_per_class() {
        let q = JobQueue::new(8, 1);
        let m = Metrics::new();
        let cheap = ExplainMethod::Permutation;
        let kernel = ExplainMethod::KernelShap { n_coalitions: 8 };
        // Workers have observed the two classes at very different costs:
        // permutation ~40µs, KernelSHAP ~10ms (version 1 matches test jobs).
        m.observe_service_class_ns(service_class_key(1, cheap), 40_000);
        m.observe_service_class_ns(service_class_key(1, kernel), 10_000_000);
        // Under a single global EWMA (the blend, here ~1.3ms) both 5ms
        // requests would be admitted — including the KernelSHAP one that
        // cannot possibly finish in time. Per-class pricing splits them.
        let budget = Duration::from_millis(5);
        let (reason, _) = q.admit(test_job_with(kernel, budget), &m).unwrap_err();
        assert!(
            matches!(reason, RejectReason::DeadlineUnmeetable { .. }),
            "{reason:?}"
        );
        assert!(
            q.admit(test_job_with(cheap, budget), &m).is_ok(),
            "the cheap class must not be punished for the expensive one"
        );
        // A class never observed falls back to the global blend.
        let lime = ExplainMethod::Lime { n_samples: 16 };
        assert_eq!(
            m.service_estimate_ns(service_class_key(1, lime)),
            m.ewma_service_ns()
        );
    }

    #[test]
    fn poisoned_class_estimate_recovers_without_warm_up() {
        let q = JobQueue::new(64, 1);
        let m = Metrics::new();
        let kernel = ExplainMethod::KernelShap { n_coalitions: 8 };
        let class = service_class_key(1, kernel);
        // Poison the class estimate with one pathological 10s sample. The
        // true cost is ~1ms, so every 100ms-budget request is feasible —
        // but the estimate says none are, and pre-probe admission would
        // reject this class forever (rejects produce no fresh samples).
        m.observe_service_class_ns(class, 10_000_000_000);
        let budget = Duration::from_millis(100);
        let mut rejected = 0u64;
        let mut admitted = 0u64;
        for _ in 0..64 {
            match q.admit(test_job_with(kernel, budget), &m) {
                Ok(()) => admitted += 1,
                Err((reason, _)) => {
                    assert!(
                        matches!(reason, RejectReason::DeadlineUnmeetable { .. }),
                        "{reason:?}"
                    );
                    rejected += 1;
                    // The worker the probe would reach: report the true cost.
                    if m.snapshot().probe_admits > 0 {
                        m.observe_service_class_ns(class, 1_000_000);
                    }
                }
            }
        }
        assert!(rejected > 0, "the poisoned estimate must bite first");
        assert!(
            admitted > 0,
            "probing + ageing must re-open the class without external help"
        );
        // Once recovered, the class stays open: feasibility passes reset
        // the streak and the estimate reflects reality again.
        assert!(q.admit(test_job_with(kernel, budget), &m).is_ok());
        assert!(m.class_service.get(class).unwrap() < 100_000_000);
        let stats = m.snapshot();
        assert!(stats.probe_admits >= 1, "at least one probe fired");
    }

    #[test]
    fn admission_compares_against_remaining_budget() {
        let q = JobQueue::new(8, 1);
        let m = Metrics::new();
        m.observe_service_ns(10_000_000);
        // The job was stamped 30ms ago; of its 35ms budget only ~5ms is
        // left, which one 10ms service cannot meet.
        let mut job = test_job(Duration::from_millis(35));
        job.admitted = Instant::now() - Duration::from_millis(30);
        let (reason, _) = q.admit(job, &m).unwrap_err();
        assert!(
            matches!(reason, RejectReason::DeadlineUnmeetable { .. }),
            "{reason:?}"
        );
    }
}
