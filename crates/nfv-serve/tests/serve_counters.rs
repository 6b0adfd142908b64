//! What `ServeStats` counts, request by request: one script of a miss, a
//! hot hit, a cold-tier hit and three kinds of reject, with every counter
//! it moves pinned. Hits answered on the caller's thread are counted in
//! `submitted`, `completed` and `cache_hits` like any other answer; the
//! `total_*` latencies cover answers a worker delivered. A second script
//! mixes every kind of booking behind a held worker and checks that each
//! request is booked exactly once: `submitted == completed + Σ rejected_*
//! + explain_errors` at quiescence.

use nfv_data::prelude::*;
use nfv_ml::prelude::*;
use nfv_serve::prelude::*;
use nfv_xai::prelude::*;
use std::time::Duration;

/// One worker, one cache shard and a one-entry hot tier: the second
/// distinct key demotes the first to the cold tier.
fn engine() -> (ServeEngine, SynthData) {
    let synth = friedman1(200, 5, 0.1, 21).unwrap();
    let params = GbdtParams {
        n_rounds: 10,
        ..Default::default()
    };
    let model = Gbdt::fit(&synth.data, &params, 0).unwrap();
    let bg = Background::from_dataset(&synth.data, 12, 1).unwrap();
    let engine = ServeEngine::start(ServeConfig {
        workers: 1,
        cache_capacity: 1,
        cold_capacity: 64,
        cache_shards: 1,
        ..ServeConfig::default()
    });
    engine
        .registry()
        .register("m", ServeModel::Gbdt(model), synth.data.names.clone(), bg)
        .unwrap();
    (engine, synth)
}

fn req(model_id: &str, features: Vec<f64>) -> ExplainRequest {
    ExplainRequest {
        model_id: model_id.into(),
        features,
        method: ExplainMethod::TreeShap,
        budget: Duration::from_secs(5),
    }
}

fn rejected(outcome: Result<ExplainResponse, ServeError>) -> RejectReason {
    match outcome {
        Err(ServeError::Rejected(reason)) => reason,
        other => panic!("expected a reject, got {other:?}"),
    }
}

#[test]
fn every_counter_reads_as_the_script_dictates() {
    let (engine, synth) = engine();
    let row = |i: usize| synth.data.row(i).to_vec();

    // A miss, then the same key from the hot tier.
    let miss = engine.explain(req("m", row(0))).unwrap();
    assert!(!miss.cache_hit);
    let hot = engine.explain(req("m", row(0))).unwrap();
    assert!(hot.cache_hit && hot.fidelity.is_exact());
    assert_eq!(hot.attribution, miss.attribution);

    // A second key takes the one hot slot; the first answers from the
    // cold tier with its error bound.
    assert!(!engine.explain(req("m", row(1))).unwrap().cache_hit);
    let cold = engine.explain(req("m", row(0))).unwrap();
    assert!(cold.cache_hit);
    assert!(matches!(cold.fidelity, Fidelity::Quantized { .. }));

    // Three rejects, none of which reaches the cache.
    assert!(matches!(
        rejected(engine.explain(req("nope", row(0)))),
        RejectReason::UnknownModel { .. }
    ));
    assert!(matches!(
        rejected(engine.explain(req("m", vec![0.5; 3]))),
        RejectReason::InvalidRequest { .. }
    ));
    let mut nan = row(2);
    nan[1] = f64::NAN;
    assert!(matches!(
        rejected(engine.explain(req("m", nan))),
        RejectReason::InvalidRequest { .. }
    ));

    let s = engine.stats();
    assert_eq!(s.submitted, 7);
    assert_eq!(s.completed, 4);
    assert_eq!(s.cache_hits, 2);
    assert_eq!(s.quantized_hits, 1);
    assert_eq!(s.cache_misses, 2);
    assert_eq!(s.cache_hit_rate, 0.5);
    assert_eq!(s.rejected_unknown_model, 1);
    assert_eq!(s.rejected_invalid, 2);
    assert_eq!(s.rejected_unknown_method, 0);
    assert_eq!(s.rejected_queue_full, 0);
    assert_eq!(s.rejected_deadline_unmeetable, 0);
    assert_eq!(s.rejected_deadline_expired, 0);
    assert_eq!(s.explain_errors, 0);
    assert_eq!(s.single_flight_hits, 0);
    assert_eq!(s.degraded_served, 0);
    assert_eq!((s.cache_hot_entries, s.cache_cold_entries), (1, 1));
    engine.shutdown();
}

#[test]
fn a_burst_of_caller_thread_hits_records_no_latency() {
    let (engine, synth) = engine();
    let x = synth.data.row(0).to_vec();
    assert!(!engine.explain(req("m", x.clone())).unwrap().cache_hit);
    let before = engine.stats();
    for _ in 0..1_000 {
        assert!(engine.explain(req("m", x.clone())).unwrap().cache_hit);
    }
    let after = engine.stats();
    assert_eq!(after.completed, before.completed + 1_000);
    assert_eq!(after.cache_hits, before.cache_hits + 1_000);
    // The miss's one sample is still the whole of the `total` histogram:
    // any hit sample would move its mean.
    assert_eq!(
        after.total_mean_us.to_bits(),
        before.total_mean_us.to_bits()
    );
    assert_eq!(after.total_p50_us.to_bits(), before.total_p50_us.to_bits());
    assert_eq!(after.total_p99_us.to_bits(), before.total_p99_us.to_bits());
    engine.shutdown();
}

/// An explainer that holds the engine's only worker until released,
/// after saying that it has started.
struct Plug {
    entered: crossbeam::channel::Sender<()>,
    release: crossbeam::channel::Receiver<()>,
}

impl Explainer for Plug {
    fn tag(&self) -> &'static str {
        "identity-plug"
    }
    fn plan(
        &self,
        _ctx: &ExplainContext<'_>,
        _ws: &mut CoalitionWorkspace,
        _block: &mut FusedBlock,
    ) -> Result<Box<dyn ExplainPlan>, XaiError> {
        Err(XaiError::Input("the plug runs alone".into()))
    }
    fn direct(
        &self,
        ctx: &ExplainContext<'_>,
        _ws: &mut CoalitionWorkspace,
    ) -> Result<Attribution, XaiError> {
        let _ = self.entered.send(());
        let _ = self.release.recv();
        Ok(Attribution {
            names: ctx.names.into(),
            values: vec![0.0; ctx.x.len()],
            base_value: 0.0,
            prediction: 0.0,
            method: "identity-plug".into(),
        })
    }
}

/// Every request the engine takes in leaves as exactly one of an answer,
/// a counted reject or an explain error: at quiescence `submitted ==
/// completed + Σ rejected_* + explain_errors`. The traffic holds the only
/// worker with a plug and mixes everything that books a counter: a miss, a
/// hit, followers parked on a leader's flight, an unknown model, a wrong
/// width, an unknown method, a failing factory, a deadline that expires in
/// the queue, and queue-full requests of a sampling method (answered
/// coarse when anytime is on, rejected when off) and a deterministic one.
#[test]
fn every_request_is_booked_exactly_once_with_anytime_on_and_off() {
    let (entered_tx, entered) = crossbeam::channel::unbounded();
    let (release, release_rx) = crossbeam::channel::unbounded::<()>();
    MethodRegistry::global().register("identity-plug", move |_cfg| {
        Ok(Box::new(Plug {
            entered: entered_tx.clone(),
            release: release_rx.clone(),
        }))
    });
    MethodRegistry::global().register("identity-factory-fails", |_cfg| {
        Err(XaiError::Input("no explainer today".into()))
    });
    for anytime in [true, false] {
        let synth = friedman1(200, 5, 0.1, 23).unwrap();
        let params = GbdtParams {
            n_rounds: 10,
            ..Default::default()
        };
        let model = Gbdt::fit(&synth.data, &params, 0).unwrap();
        let bg = Background::from_dataset(&synth.data, 12, 1).unwrap();
        let engine = ServeEngine::start(ServeConfig {
            workers: 1,
            queue_capacity: 4,
            anytime,
            ..ServeConfig::default()
        });
        engine
            .registry()
            .register("m", ServeModel::Gbdt(model), synth.data.names.clone(), bg)
            .unwrap();
        let at = |row: usize, method, budget| ExplainRequest {
            model_id: "m".into(),
            features: synth.data.row(row).to_vec(),
            method,
            budget,
        };
        let long = Duration::from_secs(30);
        let kernel = ExplainMethod::KernelShap { n_coalitions: 64 };
        // A miss and its hit.
        assert!(
            !engine
                .explain(at(0, ExplainMethod::TreeShap, long))
                .unwrap()
                .cache_hit
        );
        assert!(
            engine
                .explain(at(0, ExplainMethod::TreeShap, long))
                .unwrap()
                .cache_hit
        );
        let mut replies = Vec::new();
        let mut submit = |request: ExplainRequest| {
            let (tx, rx) = crossbeam::channel::bounded(1);
            engine.submit(
                request,
                Reply::new(move |outcome| {
                    let _ = tx.send(outcome);
                }),
            );
            replies.push(rx);
        };

        // The plug holds the worker; behind it the queue (4 slots) takes a
        // leader with two followers parked on its flight, a failing
        // factory, a request that expires there and one more leader.
        submit(at(1, ExplainMethod::custom("identity-plug", 1), long));
        entered
            .recv_timeout(long)
            .expect("the worker takes the plug");
        for _ in 0..3 {
            submit(at(2, kernel, long));
        }
        submit(at(
            3,
            ExplainMethod::custom("identity-factory-fails", 1),
            long,
        ));
        submit(at(4, kernel, Duration::from_millis(300)));
        submit(at(5, kernel, long));
        // The queue is full: a sampling method degrades or rejects, a
        // deterministic one rejects.
        submit(at(6, kernel, long));
        submit(at(7, ExplainMethod::Permutation, long));
        // Rejected on the caller's thread.
        submit(ExplainRequest {
            model_id: "nope".into(),
            ..at(0, kernel, long)
        });
        submit(ExplainRequest {
            features: vec![0.5; 3],
            ..at(0, kernel, long)
        });
        submit(at(
            0,
            ExplainMethod::custom("identity-never-registered", 1),
            long,
        ));
        // Past the 300 ms budget, so that request expires in the queue.
        std::thread::sleep(Duration::from_millis(400));
        release.send(()).unwrap();

        for rx in &replies {
            let _ = rx.recv_timeout(long).expect("every request is answered");
        }
        let t0 = std::time::Instant::now();
        while engine.queue_len() > 0 {
            assert!(t0.elapsed() < long, "the queue drains");
            std::thread::sleep(Duration::from_millis(1));
        }
        let s = engine.stats();
        let rejected = s.rejected_queue_full
            + s.rejected_deadline_unmeetable
            + s.rejected_deadline_expired
            + s.rejected_unknown_model
            + s.rejected_invalid
            + s.rejected_unknown_method;
        assert_eq!(
            s.submitted,
            2 + replies.len() as u64,
            "anytime {anytime}: {s:?}"
        );
        assert_eq!(
            s.submitted,
            s.completed + rejected + s.explain_errors,
            "anytime {anytime}: {s:?}"
        );
        // The script reached every kind of booking it means to.
        assert_eq!(s.single_flight_hits, 2, "{s:?}");
        assert_eq!(s.rejected_deadline_expired, 1, "{s:?}");
        assert_eq!(s.rejected_unknown_model, 1, "{s:?}");
        assert_eq!(s.rejected_invalid, 1, "{s:?}");
        assert_eq!(s.rejected_unknown_method, 1, "{s:?}");
        assert_eq!(s.explain_errors, 1, "{s:?}");
        let (degraded, queue_full) = if anytime { (1, 1) } else { (0, 2) };
        assert_eq!(s.degraded_served, degraded, "{s:?}");
        assert_eq!(s.rejected_queue_full, queue_full, "{s:?}");
        engine.shutdown();
    }
}
