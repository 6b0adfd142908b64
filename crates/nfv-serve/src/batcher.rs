//! Micro-batching: a worker takes what is already waiting so compatible
//! requests share one `nfv-xai` batch call.
//!
//! Batches form from backlog, never from a timer: a request that finds an
//! idle worker starts at once, and a batch is as large as the queue grew
//! while the workers were busy. The gather never reorders across
//! compatibility groups.

use crate::queue::Job;
use crossbeam::channel::Receiver;

/// One worker cycle's batch: `first` plus whatever is already queued behind
/// it, up to `max_batch` jobs in FIFO order. Never blocks — the queued jobs
/// are taken under one lock acquisition of the channel.
pub fn gather(rx: &Receiver<Job>, first: Job, max_batch: usize) -> Vec<Job> {
    let mut jobs = vec![first];
    rx.try_recv_many(max_batch.saturating_sub(1), &mut jobs);
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
    use std::time::Duration;

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
            feature_names: ["a".to_string()].into(),
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
