//! Micro-batching: opportunistically gather queued jobs so compatible
//! requests share one `nfv-xai` batch call.
//!
//! The gather never reorders across compatibility groups and never holds a
//! lone request longer than the configured window — tail latency is traded
//! explicitly, not accidentally.

use crate::queue::Job;
use crossbeam::channel::Receiver;
use std::time::{Duration, Instant};

/// How eagerly workers form batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Largest number of jobs one worker takes per cycle.
    pub max_batch: usize,
    /// How long a worker lingers for companions after its first job.
    /// Zero disables gathering (every job is a singleton batch).
    pub gather_window: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 16,
            gather_window: Duration::from_micros(500),
        }
    }
}

/// Collects up to `max_batch` jobs: `first` plus whatever arrives within
/// the gather window. Drains eagerly (no sleep while jobs are waiting).
///
/// The window is for companions to share a fused block with: a `first`
/// that cannot fuse still takes what is already queued but does not wait,
/// so later arrivals go to an idle worker instead of behind its walk.
pub fn gather(rx: &Receiver<Job>, first: Job, policy: &BatchPolicy) -> Vec<Job> {
    let window = if first.explainer.fusable() {
        policy.gather_window
    } else {
        Duration::ZERO
    };
    let deadline = Instant::now() + window;
    let mut jobs = vec![first];
    while jobs.len() < policy.max_batch.max(1) {
        match rx.try_recv() {
            Ok(job) => jobs.push(job),
            Err(_) => {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                match rx.recv_timeout(deadline - now) {
                    Ok(job) => jobs.push(job),
                    Err(_) => break,
                }
            }
        }
    }
    jobs
}

/// Splits a gathered batch into compatibility groups — same model id,
/// same version, same method (budget included) — preserving first-seen
/// order both across and within groups, so explanation order is FIFO per
/// group.
pub fn group_compatible(jobs: Vec<Job>) -> Vec<Vec<Job>> {
    let mut groups: Vec<Vec<Job>> = Vec::new();
    for job in jobs {
        let slot = groups.iter_mut().find(|g| {
            let k = &g[0].key;
            k.model_id == job.key.model_id
                && k.model_version == job.key.model_version
                && k.method == job.key.method
        });
        match slot {
            Some(g) => g.push(job),
            None => groups.push(vec![job]),
        }
    }
    groups
}

/// Splits a gathered batch by **model identity only** — same model id and
/// version, methods mixed — preserving first-seen order. This is the
/// fusion scheduler's grouping: every job in a model group shares one
/// `Regressor`, so their coalition plans can stack into one fused
/// evaluation block regardless of method or budget.
pub fn group_same_model(jobs: Vec<Job>) -> Vec<Vec<Job>> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheKey;
    use crate::request::{ExplainMethod, ExplainRequest};
    use nfv_ml::prelude::*;
    use nfv_xai::prelude::*;
    use std::sync::Arc;

    fn job_for(model_id: &str, version: u64, method: ExplainMethod) -> Job {
        let data = nfv_data::dataset::Dataset::new(
            vec!["a".into()],
            vec![0.0, 1.0],
            vec![0.0, 1.0],
            nfv_data::dataset::Task::Regression,
        )
        .unwrap();
        let model = LinearRegression::fit(&data, 1e-6).unwrap();
        let entry = Arc::new(crate::registry::ModelEntry {
            model: crate::registry::ServeModel::Linear(model),
            version,
            feature_names: vec!["a".into()],
            background: Background::from_rows(vec![vec![0.0]]).unwrap(),
            packed: None,
            expected_output: 0.0,
            groups: FeatureGroups::new(vec!["all".into()], vec![0]).unwrap(),
            trees: None,
        });
        let request = ExplainRequest {
            model_id: model_id.into(),
            features: vec![0.5],
            method,
            budget: Duration::from_secs(1),
        };
        let key = CacheKey::build(model_id, version, method, &request.features, 1e-6).unwrap();
        let (respond, rx) = crossbeam::channel::bounded(1);
        std::mem::forget(rx);
        Job {
            request,
            explainer: entry.explainer(method).expect("method resolves"),
            entry,
            key,
            admitted: std::time::Instant::now(),
            respond,
        }
    }

    #[test]
    fn grouping_splits_on_model_version_and_method() {
        let ks = ExplainMethod::KernelShap { n_coalitions: 8 };
        let jobs = vec![
            job_for("a", 1, ks),
            job_for("b", 1, ks),
            job_for("a", 1, ks),
            job_for("a", 2, ks),
            job_for("a", 1, ExplainMethod::KernelShap { n_coalitions: 16 }),
        ];
        let groups = group_compatible(jobs);
        assert_eq!(groups.len(), 4);
        assert_eq!(groups[0].len(), 2, "two (a, v1, ks8) jobs merge");
        // First-seen order preserved.
        assert_eq!(groups[1][0].request.model_id, "b");
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
    fn gather_respects_max_batch_and_drains_eagerly() {
        let (tx, rx) = crossbeam::channel::bounded::<Job>(16);
        let ks = ExplainMethod::KernelShap { n_coalitions: 8 };
        for _ in 0..5 {
            assert!(tx.send(job_for("a", 1, ks)).is_ok());
        }
        let first = job_for("a", 1, ks);
        let policy = BatchPolicy {
            max_batch: 4,
            gather_window: Duration::from_millis(50),
        };
        let t0 = Instant::now();
        let batch = gather(&rx, first, &policy);
        assert_eq!(batch.len(), 4, "capped at max_batch");
        assert!(
            t0.elapsed() < Duration::from_millis(40),
            "no waiting when the queue is non-empty"
        );
        // Window elapses when the queue runs dry.
        let first = rx.recv().unwrap();
        let t0 = Instant::now();
        let batch = gather(&rx, first, &policy);
        assert_eq!(batch.len(), 2, "drains the remaining job then times out");
        assert!(
            t0.elapsed() >= policy.gather_window,
            "a fusable first job lingers for companions"
        );
    }

    #[test]
    fn non_fusable_first_job_drains_but_does_not_linger() {
        let (tx, rx) = crossbeam::channel::bounded::<Job>(16);
        let lime = ExplainMethod::Lime { n_samples: 8 };
        let policy = BatchPolicy {
            max_batch: 8,
            gather_window: Duration::from_millis(200),
        };
        let t0 = Instant::now();
        let batch = gather(&rx, job_for("a", 1, lime), &policy);
        assert_eq!(batch.len(), 1);
        // Already-queued jobs still ride along.
        let ks = ExplainMethod::KernelShap { n_coalitions: 8 };
        assert!(tx.send(job_for("a", 1, ks)).is_ok());
        let batch = gather(&rx, job_for("a", 1, lime), &policy);
        assert_eq!(batch.len(), 2);
        assert!(
            t0.elapsed() < policy.gather_window / 4,
            "nothing to fuse with: no wait, took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn zero_window_means_singletons() {
        let (tx, rx) = crossbeam::channel::bounded::<Job>(4);
        let ks = ExplainMethod::KernelShap { n_coalitions: 8 };
        assert!(tx.send(job_for("a", 1, ks)).is_ok());
        let first = job_for("a", 1, ks);
        let policy = BatchPolicy {
            max_batch: 8,
            gather_window: Duration::ZERO,
        };
        let batch = gather(&rx, first, &policy);
        // try_recv still drains an already-waiting job; the window only
        // controls how long we *wait* for more.
        assert!(batch.len() <= 2);
    }
}
