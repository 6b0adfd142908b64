//! `Engine::submit` never waits on a computation. With the engine's only
//! worker held by a plug, one thread submits a leader, two identical
//! followers, a distinct miss, a hit and a request whose explainer factory
//! fails: every call returns at once, only the hit is answered before the
//! worker is released, and afterwards each reply arrives exactly once.

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use nfv_data::prelude::*;
use nfv_ml::prelude::*;
use nfv_serve::prelude::*;
use nfv_xai::prelude::*;
use nfv_xai::XaiError;
use std::sync::Arc;
use std::time::Duration;

type Outcome = Result<ExplainResponse, ServeError>;

/// A plug-in whose explanation holds its worker until the test releases
/// it, after saying that it does.
struct Plug {
    entered: Sender<()>,
    release: Receiver<()>,
}

impl Explainer for Plug {
    fn tag(&self) -> &'static str {
        "plug"
    }
    fn plan(
        &self,
        _ctx: &ExplainContext<'_>,
        _ws: &mut CoalitionWorkspace,
        _block: &mut FusedBlock,
    ) -> Result<Box<dyn ExplainPlan>, XaiError> {
        Err(XaiError::Input("plug runs alone".into()))
    }
    fn direct(
        &self,
        ctx: &ExplainContext<'_>,
        _ws: &mut CoalitionWorkspace,
    ) -> Result<Attribution, XaiError> {
        let _ = self.entered.send(());
        let _ = self.release.recv();
        let base = ctx.base_value();
        Ok(Attribution {
            names: ctx.names.into(),
            values: vec![0.0; ctx.x.len()],
            base_value: base,
            prediction: base,
            method: "plug".into(),
        })
    }
}

/// A reply that lands on the returned receiver.
fn reply() -> (Reply, Receiver<Outcome>) {
    let (tx, rx) = crossbeam::channel::bounded(1);
    let reply = Reply::new(move |outcome| {
        let _ = tx.send(outcome);
    });
    (reply, rx)
}

#[test]
fn submit_returns_at_once_and_answers_each_request_once() {
    let (entered_tx, entered) = crossbeam::channel::bounded(1);
    let (release, release_rx) = crossbeam::channel::bounded::<()>(1);
    MethodRegistry::global().register("submit-plug", move |_cfg| {
        Ok(Box::new(Plug {
            entered: entered_tx.clone(),
            release: release_rx.clone(),
        }))
    });
    MethodRegistry::global().register("submit-factory-fails", |_cfg| {
        Err(XaiError::Input("no explainer today".into()))
    });
    let synth = friedman1(200, 5, 0.1, 61).unwrap();
    let model = Gbdt::fit(
        &synth.data,
        &GbdtParams {
            n_rounds: 10,
            ..Default::default()
        },
        0,
    )
    .unwrap();
    let bg = Background::from_dataset(&synth.data, 12, 1).unwrap();
    let engine = Arc::new(ServeEngine::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    }));
    engine
        .registry()
        .register("m", ServeModel::Gbdt(model), synth.data.names.clone(), bg)
        .unwrap();
    let at = |row: usize, method| ExplainRequest {
        model_id: "m".into(),
        features: synth.data.row(row).to_vec(),
        method,
        budget: Duration::from_secs(30),
    };
    engine.explain(at(0, ExplainMethod::TreeShap)).unwrap();
    let (plug_reply, plug) = reply();
    engine.submit(at(1, ExplainMethod::custom("submit-plug", 1)), plug_reply);
    entered
        .recv_timeout(Duration::from_secs(10))
        .expect("the worker reaches the plug");

    let kernel = ExplainMethod::KernelShap { n_coalitions: 64 };
    let requests = vec![
        at(2, kernel),
        at(2, kernel),
        at(2, kernel),
        at(3, kernel),
        at(0, ExplainMethod::TreeShap),
        at(4, ExplainMethod::custom("submit-factory-fails", 1)),
    ];
    let (submitted_tx, submitted) = crossbeam::channel::bounded(1);
    let submitter = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            let replies: Vec<Receiver<Outcome>> = requests
                .into_iter()
                .map(|request| {
                    let (reply, rx) = reply();
                    engine.submit(request, reply);
                    rx
                })
                .collect();
            let _ = submitted_tx.send(replies);
        })
    };
    let replies = submitted.recv_timeout(Duration::from_secs(10));
    let queued = engine.queue_len();
    let early: Vec<bool> = replies.iter().flatten().map(|rx| !rx.is_empty()).collect();
    release.send(()).unwrap();
    let replies = replies.expect("every submit returns while the worker is held");
    submitter.join().unwrap();
    assert_eq!(
        early,
        [false, false, false, false, true, false],
        "only the hit is answered while the worker is held"
    );
    assert_eq!(
        queued, 3,
        "the leader, the distinct miss, the failing factory"
    );

    let mut outcomes: Vec<Outcome> = replies
        .iter()
        .map(|rx| {
            let outcome = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("answered after the release");
            // The sink is spent: its sender goes, and nothing follows.
            assert!(
                matches!(
                    rx.recv_timeout(Duration::from_secs(10)),
                    Err(RecvTimeoutError::Disconnected)
                ),
                "answered once"
            );
            outcome
        })
        .collect();
    plug.recv_timeout(Duration::from_secs(10))
        .unwrap()
        .expect("the plug is served");
    let failed = outcomes.pop().unwrap();
    assert!(
        matches!(failed, Err(ServeError::Explain(_))),
        "the factory's error: {failed:?}"
    );
    let [leader, first, second, distinct, hit] = outcomes
        .into_iter()
        .map(|o| o.unwrap())
        .collect::<Vec<_>>()
        .try_into()
        .unwrap();
    assert!(!leader.cache_hit && !distinct.cache_hit);
    for follower in [&first, &second] {
        assert!(follower.cache_hit);
        assert_eq!(follower.attribution, leader.attribution);
    }
    assert!(hit.cache_hit);
    let stats = engine.stats();
    // Misses: the warm-up, the plug, the leader, the distinct miss and the
    // failing factory; the followers are single-flight hits.
    assert_eq!(stats.cache_misses, 5, "{stats:?}");
    assert_eq!(stats.single_flight_hits, 2, "{stats:?}");
    assert_eq!(stats.explain_errors, 1, "{stats:?}");
    assert_eq!(stats.completed, 7, "{stats:?}");
}

#[test]
fn a_reply_dropped_unanswered_answers_internal() {
    let (dropped, rx) = reply();
    drop(dropped);
    assert!(matches!(rx.try_recv(), Ok(Err(ServeError::Internal(_)))));
    assert!(matches!(rx.try_recv(), Err(TryRecvError::Disconnected)));
}
