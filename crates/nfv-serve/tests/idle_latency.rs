//! An idle engine adds no latency of its own: a lone request starts the
//! moment a worker wakes, whether or not its method could have stacked
//! with companions. Alone in its test binary so sibling tests do not compete
//! for the cores while it reads the clock.

use nfv_data::prelude::*;
use nfv_ml::prelude::*;
use nfv_serve::prelude::*;
use nfv_xai::prelude::*;
use std::time::Duration;

/// A queue wait at least this long counts as a stall.
const STALL_US: u64 = 450;

/// Stalled requests (of 200) the test tolerates.
const MAX_STALLED: usize = 100;

#[test]
fn lone_fusable_requests_start_at_once_and_keep_their_deadline() {
    let synth = friedman1(300, 5, 0.1, 3).unwrap();
    let model = Gbdt::fit(
        &synth.data,
        &GbdtParams {
            n_rounds: 12,
            ..Default::default()
        },
        0,
    )
    .unwrap();
    let bg = Background::from_dataset(&synth.data, 12, 1).unwrap();
    let engine = ServeEngine::start(ServeConfig::default());
    engine
        .registry()
        .register("m", ServeModel::Gbdt(model), synth.data.names.clone(), bg)
        .unwrap();

    let request = |i: usize, budget: Duration| ExplainRequest {
        model_id: "m".into(),
        features: synth.data.row(i).to_vec(),
        method: ExplainMethod::KernelShap { n_coalitions: 16 },
        budget,
    };
    // Process cold start (method registry, first page faults) is not the
    // engine's queue: one untimed request absorbs it.
    engine
        .explain(request(299, Duration::from_secs(5)))
        .unwrap();

    // One caller, one request in the system at a time, every key new: each
    // request meets an empty queue and an idle worker, and runs alone. The
    // budget is generous, so nothing expires in the queue or is refused at
    // admission: the test counts how often a request waited, instead of
    // asking whether the host's scheduler ever kept a woken worker off the
    // core for longer than a tight deadline.
    let budget = Duration::from_secs(5);
    let waits: Vec<Duration> = (0..200)
        .map(|i| {
            let resp = engine
                .explain(request(i, budget))
                .unwrap_or_else(|e| panic!("request {i} on an idle engine: {e}"));
            assert!(!resp.cache_hit, "request {i}: every key is new");
            assert_eq!(resp.batch_size, 1, "request {i}: nothing queued beside it");
            resp.queue_wait
        })
        .collect();
    // A wait the engine adds of its own (a gather that lingers for
    // companions) recurs on every request and stalls all 200; a preemption
    // of a 2-vCPU host stalls a few. So the bound counts stalled requests
    // rather than reading a quantile.
    let stall = Duration::from_micros(STALL_US);
    let stalled = waits.iter().filter(|&&w| w >= stall).count();
    let mut sorted = waits.clone();
    sorted.sort_unstable();
    println!(
        "of 200 lone requests: {stalled} waited >= {stall:?} (median {:?}, max {:?})",
        sorted[100], sorted[199]
    );
    assert!(
        stalled < MAX_STALLED,
        "{stalled} of 200 lone requests waited >= {stall:?} in the queue of an idle engine \
         (median {:?}): an idle worker must not wait for companions",
        sorted[100]
    );
    engine.shutdown();
}
