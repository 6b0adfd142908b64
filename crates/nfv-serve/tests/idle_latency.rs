//! An idle engine adds no latency of its own: a lone request starts the
//! moment a worker wakes, whether or not its method could have fused with
//! companions. Alone in its test binary so sibling tests do not compete
//! for the cores while it reads the clock.

use nfv_data::prelude::*;
use nfv_ml::prelude::*;
use nfv_serve::prelude::*;
use nfv_xai::prelude::*;
use std::time::Duration;

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
    // request meets an empty queue and idle workers. The 2 ms budget is the
    // serving frontier's (EXPERIMENTS §S1). A request that misses it counts
    // as having waited all of it, so the survivors cannot hide a slow tail
    // from the median.
    let budget = Duration::from_millis(2);
    let mut refused = 0;
    let mut waits: Vec<Duration> = (0..200)
        .map(|i| match engine.explain(request(i, budget)) {
            Ok(resp) => {
                assert!(!resp.cache_hit);
                resp.queue_wait
            }
            // Burned the budget in the queue: what a wait of the engine's
            // own looks like. Counted by the engine, bounded below.
            Err(ServeError::Rejected(RejectReason::DeadlineExpired { .. })) => budget,
            // Turned away at the door, no wait: admission's estimate of the
            // class after the host preempted a worker mid-computation (one
            // slow service sample refuses the next ~7 while it ages).
            Err(ServeError::Rejected(RejectReason::DeadlineUnmeetable { .. })) => {
                refused += 1;
                budget
            }
            Err(e) => panic!("request {i} on an idle engine: {e}"),
        })
        .collect();
    let expired = engine.stats().rejected_deadline_expired;
    println!("of 200 requests: {expired} expired in the queue, {refused} refused at admission");
    waits.sort_unstable();
    let median = waits[waits.len() / 2];
    assert!(
        median < Duration::from_micros(250),
        "median queue wait {median:?}: an idle worker must not wait for companions"
    );
    // Why 2 and not 0: one preemption of a 2-vCPU host keeps a woken worker
    // off the core for longer than the whole budget ("waited 2040us of
    // 2000us") and can catch the request behind it too. That is the host's
    // scheduler, not an engine timer: a wait the engine adds recurs (PR 17's
    // linger expired all 200).
    assert!(
        expired <= 2,
        "{expired} of 200 lone requests expired in the queue of an idle engine"
    );
    engine.shutdown();
}
