//! What `ServeStats` counts, request by request: one script of a miss, a
//! hot hit, a cold-tier hit and three kinds of reject, with every counter
//! it moves pinned. Hits answered on the caller's thread are counted in
//! `submitted`, `completed` and `cache_hits` like any other answer; the
//! `total_*` latencies cover answers a worker delivered.

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
