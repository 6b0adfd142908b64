//! The router against scripted fake shards: no sockets, no sleeps.
//!
//! A [`Fake`]'s answer is a pure function of the request, and each call
//! (explain or register) takes the next step of that shard's script —
//! answer, `QueueFull`, transport fault, an engine verdict, or assign a
//! given version. Every policy of the one router is
//! driven from here: spill-once, fault counting, the version refusal, and
//! a seeded storm that replays.

use nfv_ml::prelude::LinearRegression;
use nfv_serve::cluster::{ErrorClass, Registration, Shard};
use nfv_serve::prelude::*;
use nfv_xai::prelude::{Attribution, Background};
use nfv_xai::XaiError;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

#[derive(Debug, Clone, PartialEq)]
enum FakeError {
    Fault,
    Serve(ServeError),
    Refused(Refusal),
}

impl From<Refusal> for FakeError {
    fn from(r: Refusal) -> FakeError {
        FakeError::Refused(r)
    }
}

enum Step {
    QueueFull,
    Fault,
    Verdict(ServeError),
    /// A register assigns this version instead of its own next one.
    Version(u64),
}

/// Shard calls made by every fake of one test, for the per-request bound.
type CallCounter = Arc<AtomicU64>;

struct Fake {
    script: Mutex<VecDeque<Step>>,
    calls: AtomicU64,
    all_calls: CallCounter,
    answered: AtomicU64,
    next_version: AtomicU64,
}

impl Fake {
    fn new(all_calls: &CallCounter) -> Fake {
        Fake {
            script: Mutex::new(VecDeque::new()),
            calls: AtomicU64::new(0),
            all_calls: Arc::clone(all_calls),
            answered: AtomicU64::new(0),
            next_version: AtomicU64::new(0),
        }
    }

    fn push(&self, step: Step) {
        self.script.lock().unwrap().push_back(step);
    }

    /// Takes the next scripted step; `None` = answer.
    fn step(&self) -> Option<Step> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        self.all_calls.fetch_add(1, Ordering::SeqCst);
        self.script.lock().unwrap().pop_front()
    }
}

/// The pure answer: the same bits whichever shard computes it.
fn answer(request: &ExplainRequest) -> ExplainResponse {
    let mut values = request.features.clone();
    values.push(request.model_id.len() as f64);
    ExplainResponse {
        attribution: Arc::new(Attribution {
            names: Arc::from(Vec::<String>::new()),
            values,
            base_value: 0.0,
            prediction: request.features.iter().sum(),
            method: "fake".into(),
        }),
        model_version: 1,
        cache_hit: false,
        batch_size: 1,
        queue_wait: Duration::ZERO,
        service_time: Duration::ZERO,
        fidelity: Fidelity::Exact,
    }
}

impl Shard for Fake {
    type Error = FakeError;

    fn explain(&self, request: &ExplainRequest) -> Result<ExplainResponse, FakeError> {
        match self.step() {
            None | Some(Step::Version(_)) => {
                self.answered.fetch_add(1, Ordering::SeqCst);
                Ok(answer(request))
            }
            Some(Step::QueueFull) => Err(FakeError::Serve(ServeError::Rejected(
                RejectReason::QueueFull { capacity: 1 },
            ))),
            Some(Step::Fault) => Err(FakeError::Fault),
            Some(Step::Verdict(e)) => Err(FakeError::Serve(e)),
        }
    }

    fn register(&self, _registration: &Registration) -> Result<u64, FakeError> {
        let own = self.next_version.fetch_add(1, Ordering::SeqCst) + 1;
        match self.step() {
            Some(Step::Version(k)) => Ok(k),
            Some(Step::Fault) => Err(FakeError::Fault),
            _ => Ok(own),
        }
    }

    fn stats(&self) -> Option<ServeStats> {
        Some(ServeStats {
            completed: self.answered.load(Ordering::SeqCst),
            ..ServeStats::default()
        })
    }

    fn drain(&self) -> Result<u64, FakeError> {
        Ok(self.answered.load(Ordering::SeqCst))
    }

    fn classify(error: &FakeError) -> ErrorClass {
        match error {
            FakeError::Fault => ErrorClass::Fault,
            FakeError::Serve(ServeError::Rejected(RejectReason::QueueFull { .. })) => {
                ErrorClass::QueueFull
            }
            _ => ErrorClass::Final,
        }
    }
}

fn cluster(n: usize) -> (Router<Fake>, CallCounter) {
    let calls = CallCounter::default();
    let fakes = (0..n).map(|_| Fake::new(&calls)).collect();
    (Router::new(fakes, 1e-6).unwrap(), calls)
}

fn fake(router: &Router<Fake>, id: u32) -> Arc<Fake> {
    router.shard(id).unwrap()
}

/// The router's shard ids, `0..n`.
fn shard_ids(router: &Router<Fake>) -> Vec<u32> {
    (0..).take_while(|&id| router.shard(id).is_some()).collect()
}

fn register(router: &Router<Fake>, model_id: &str) -> Result<u64, FakeError> {
    let model = ServeModel::Linear(LinearRegression {
        coefficients: vec![1.0, 2.0],
        intercept: 0.0,
    });
    let background = Background::from_rows(vec![vec![0.0, 0.0]]).unwrap();
    router.register(model_id, model, vec!["a".into(), "b".into()], background)
}

fn request(k: u64) -> ExplainRequest {
    ExplainRequest {
        model_id: "m".into(),
        features: vec![k as f64 * 0.25, 1.0],
        method: ExplainMethod::TreeShap,
        budget: Duration::from_secs(1),
    }
}

/// Per-shard call counts, in id order.
fn calls_by_shard(router: &Router<Fake>) -> Vec<u64> {
    let ids = shard_ids(router);
    ids.iter()
        .map(|&id| fake(router, id).calls.load(Ordering::SeqCst))
        .collect()
}

/// The home shard of `request`: the one shard an all-answering explain
/// calls.
fn home_of(router: &Router<Fake>, request: &ExplainRequest) -> u32 {
    let before = calls_by_shard(router);
    router.explain(request).unwrap();
    let after = calls_by_shard(router);
    let ids = shard_ids(router);
    let called: Vec<u32> = (0..ids.len())
        .filter(|&i| after[i] != before[i])
        .map(|i| ids[i])
        .collect();
    assert_eq!(called.len(), 1, "an answered request calls one shard");
    called[0]
}

#[test]
fn home_queue_full_spills_exactly_once_to_the_successor() {
    let (router, calls) = cluster(3);
    let req = request(1);
    let home = home_of(&router, &req);
    fake(&router, home).push(Step::QueueFull);
    let before = calls_by_shard(&router);
    calls.store(0, Ordering::SeqCst);
    assert_eq!(
        router.explain(&req).unwrap().attribution,
        answer(&req).attribution
    );
    assert_eq!(calls.load(Ordering::SeqCst), 2);
    let after = calls_by_shard(&router);
    let moved: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
    assert_eq!(moved.iter().filter(|&&m| m == 1).count(), 2, "{moved:?}");
    let stats = router.stats();
    assert_eq!((stats.spills, stats.faults), (1, 0));
}

#[test]
fn home_fault_spills_and_is_counted() {
    let (router, _) = cluster(3);
    let req = request(2);
    let home = home_of(&router, &req);
    fake(&router, home).push(Step::Fault);
    assert!(router.explain(&req).is_ok());
    let stats = router.stats();
    assert_eq!((stats.spills, stats.faults), (1, 1));
}

#[test]
fn home_and_successor_faulting_fail_after_exactly_two_calls() {
    let (router, calls) = cluster(3);
    let req = request(3);
    let home = home_of(&router, &req);
    for id in shard_ids(&router) {
        fake(&router, id).push(Step::Fault);
    }
    calls.store(0, Ordering::SeqCst);
    assert_eq!(router.explain(&req).unwrap_err(), FakeError::Fault);
    assert_eq!(calls.load(Ordering::SeqCst), 2);
    let stats = router.stats();
    assert_eq!((stats.spills, stats.faults), (1, 2));
    let untouched = shard_ids(&router)
        .into_iter()
        .filter(|&id| id != home && fake(&router, id).script.lock().unwrap().len() == 1)
        .count();
    assert_eq!(untouched, 1, "one non-home shard was never called");
}

#[test]
fn verdicts_are_final_one_call_no_spill() {
    let verdicts = [
        RejectReason::PipelineTooDeep { depth: 9, limit: 8 },
        RejectReason::DeadlineUnmeetable {
            estimated_us: 900,
            budget_us: 100,
        },
        RejectReason::UnknownModel {
            model_id: "m".into(),
        },
    ]
    .map(ServeError::Rejected)
    .into_iter()
    .chain([ServeError::Explain(XaiError::Numeric("singular".into()))]);
    let (router, calls) = cluster(3);
    let req = request(4);
    let home = home_of(&router, &req);
    for verdict in verdicts {
        fake(&router, home).push(Step::Verdict(verdict.clone()));
        calls.store(0, Ordering::SeqCst);
        assert_eq!(router.explain(&req).unwrap_err(), FakeError::Serve(verdict));
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }
    let stats = router.stats();
    assert_eq!((stats.spills, stats.faults), (0, 0));
}

#[test]
fn a_shard_assigning_another_version_is_refused_by_name() {
    let (router, _) = cluster(3);
    fake(&router, 1).push(Step::Version(99));
    assert_eq!(
        register(&router, "m"),
        Err(FakeError::Refused(Refusal::VersionMismatch {
            shard: 1,
            model_id: "m".into(),
            assigned: 99,
            expected: 1,
        }))
    );
}

#[test]
fn a_member_faulting_on_register_fails_the_registration() {
    let (router, _) = cluster(2);
    fake(&router, 1).push(Step::Fault);
    assert_eq!(register(&router, "m"), Err(FakeError::Fault));
}

/// splitmix64: the storm's only source of choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Outcome tallies and router counters of one storm.
#[derive(Debug, Default, PartialEq)]
struct StormCounters {
    answered: u64,
    faulted: u64,
    queue_full: u64,
    verdicts: u64,
    spills: u64,
    faults: u64,
}

fn storm(seed: u64) -> StormCounters {
    let (router, calls) = cluster(3);
    register(&router, "m").unwrap();
    let mut rng = Rng(seed);
    let mut c = StormCounters::default();
    for _ in 0..1_500 {
        for id in shard_ids(&router) {
            let step = match rng.below(12) {
                0 => Step::Fault,
                1 => Step::QueueFull,
                2 => Step::Verdict(ServeError::Rejected(RejectReason::ShuttingDown)),
                _ => continue,
            };
            fake(&router, id).push(step);
        }
        let req = request(rng.below(64));
        calls.store(0, Ordering::SeqCst);
        let outcome = router.explain(&req);
        let made = calls.load(Ordering::SeqCst);
        assert!((1..=2).contains(&made), "{made} shard calls");
        match outcome {
            Ok(resp) => {
                assert_eq!(resp.attribution, answer(&req).attribution);
                c.answered += 1;
            }
            Err(FakeError::Fault) => c.faulted += 1,
            Err(FakeError::Serve(ServeError::Rejected(RejectReason::QueueFull { .. }))) => {
                c.queue_full += 1
            }
            Err(FakeError::Serve(_)) => c.verdicts += 1,
            Err(e) => panic!("explain was refused: {e:?}"),
        }
    }
    // Every answer came from exactly one shard call: none lost, none
    // duplicated across shards.
    let stats = router.stats();
    assert_eq!(stats.cluster.completed, c.answered);
    c.spills = stats.spills;
    c.faults = stats.faults;
    c
}

#[test]
fn a_seeded_storm_keeps_every_policy_and_replays_exactly() {
    for seed in [1, 2, 3] {
        let first = storm(seed);
        assert!(first.answered > 0 && first.faulted + first.queue_full > 0);
        assert!(first.spills > 0);
        assert_eq!(first, storm(seed), "seed {seed} did not replay");
    }
}
