//! End-to-end serving: DES telemetry → feature rows → a 10k-request load
//! against the `nfv-serve` engine, checking determinism under a fixed seed,
//! cache effectiveness, micro-batch formation, and reject-style
//! backpressure.

use nfv_data::prelude::*;
use nfv_ml::prelude::*;
use nfv_serve::prelude::*;
use nfv_sim::prelude::*;
use nfv_xai::prelude::*;
use rand::prelude::*;
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Runs the secure-web chain through the discrete-event engine and
/// featurizes every telemetry window — the live monitoring stream a
/// production explainer would be asked about.
fn telemetry_rows(seed: u64) -> (FeatureSchema, Vec<Vec<f64>>) {
    let sweep = SweepConfig::secure_web(seed);
    let schema = FeatureSchema::for_chain(&sweep.chain);
    let scenario = ScenarioBuilder::new()
        .servers(1, ServerSpec::standard())
        .chain(
            sweep.chain.clone(),
            Workload::poisson(150_000.0),
            PacketSizes::Fixed(800.0),
            Sla::tight(),
        )
        .build()
        .unwrap();
    let res = scenario
        .run_des(&RunConfig {
            horizon: SimDuration::from_secs_f64(10.0),
            window: SimDuration::from_secs_f64(0.25),
            seed,
            warmup_windows: 2,
        })
        .unwrap();
    let rows: Vec<Vec<f64>> = res
        .windows
        .iter()
        .flatten()
        .filter_map(|snap| schema.from_snapshot(snap))
        .collect();
    assert!(
        rows.len() >= 20,
        "need a telemetry stream, got {}",
        rows.len()
    );
    (schema, rows)
}

/// Trains the three registry architectures on a fluid-backend sweep of the
/// same chain (same feature schema as the telemetry stream).
fn trained_models(seed: u64) -> (Gbdt, LinearRegression, Mlp, Vec<String>, Background) {
    let sweep = SweepConfig::secure_web(seed);
    let data = generate_fluid(&sweep, 900, Target::LatencyP95LogMs).unwrap();
    let gbdt = Gbdt::fit(
        &data,
        &GbdtParams {
            n_rounds: 25,
            ..Default::default()
        },
        0,
    )
    .unwrap();
    let linear = LinearRegression::fit(&data, 1e-3).unwrap();
    let mlp = Mlp::fit(
        &data,
        &MlpParams {
            hidden: vec![8],
            epochs: 10,
            ..Default::default()
        },
        0,
    )
    .unwrap();
    let bg = Background::from_dataset(&data, 16, 1).unwrap();
    (gbdt, linear, mlp, data.names.clone(), bg)
}

fn build_engine(seed: u64) -> ServeEngine {
    let (gbdt, linear, mlp, names, bg) = trained_models(seed);
    let engine = ServeEngine::start(ServeConfig {
        workers: 2,
        queue_capacity: 512,
        max_batch: 8,
        cache_capacity: 2048,
        cache_shards: 8,
        quantization_grid: 1e-6,
        seed,
        ..ServeConfig::default()
    });
    engine
        .registry()
        .register(
            "latency-gbdt",
            ServeModel::Gbdt(gbdt),
            names.clone(),
            bg.clone(),
        )
        .unwrap();
    engine
        .registry()
        .register(
            "latency-linear",
            ServeModel::Linear(linear),
            names.clone(),
            bg.clone(),
        )
        .unwrap();
    engine
        .registry()
        .register("latency-mlp", ServeModel::Mlp(mlp), names, bg)
        .unwrap();
    engine
}

/// Builds the full 10k-request sequence up front (so both determinism runs
/// see the identical stream): telemetry rows sampled with replacement,
/// models and methods mixed like a real control plane's query profile.
fn request_stream(rows: &[Vec<f64>], n: usize, seed: u64) -> Vec<ExplainRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let row = rows[rng.gen_range(0..rows.len())].clone();
            let pick: f64 = rng.gen();
            let (model_id, method) = if pick < 0.80 {
                ("latency-gbdt", ExplainMethod::TreeShap)
            } else if pick < 0.90 {
                (
                    "latency-linear",
                    ExplainMethod::KernelShap { n_coalitions: 48 },
                )
            } else {
                ("latency-mlp", ExplainMethod::Lime { n_samples: 64 })
            };
            ExplainRequest {
                model_id: model_id.into(),
                features: row,
                method,
                budget: Duration::from_secs(5),
            }
        })
        .collect()
}

/// Fires `requests` from `threads` client threads (each takes a contiguous
/// slice, preserving per-slice order) and returns every attribution's
/// values, in request order.
fn drive(engine: &ServeEngine, requests: &[ExplainRequest], threads: usize) -> Vec<Vec<f64>> {
    let chunk = requests.len().div_ceil(threads);
    let mut out: Vec<Option<Vec<f64>>> = vec![None; requests.len()];
    std::thread::scope(|s| {
        for (slice_req, slice_out) in requests.chunks(chunk).zip(out.chunks_mut(chunk)) {
            s.spawn(move || {
                for (req, cell) in slice_req.iter().zip(slice_out.iter_mut()) {
                    let resp = engine
                        .explain(req.clone())
                        .expect("in-budget request served");
                    *cell = Some(resp.attribution.values.clone());
                }
            });
        }
    });
    out.into_iter().map(|v| v.expect("all served")).collect()
}

#[test]
fn ten_thousand_requests_deterministic_with_batching_and_cache_hits() {
    let (_schema, rows) = telemetry_rows(42);
    let requests = request_stream(&rows, 10_000, 7);

    let engine = build_engine(42);

    // Phase 1 — cold burst: clients race six uncached requests in so the
    // workers demonstrably form a multi-request batch.
    let burst: Vec<ExplainRequest> = rows
        .iter()
        .take(6)
        .map(|r| ExplainRequest {
            model_id: "latency-gbdt".into(),
            features: r.clone(),
            method: ExplainMethod::TreeShap,
            budget: Duration::from_secs(5),
        })
        .collect();
    let barrier = Arc::new(Barrier::new(burst.len()));
    std::thread::scope(|s| {
        for req in &burst {
            let barrier = Arc::clone(&barrier);
            let engine = &engine;
            s.spawn(move || {
                barrier.wait();
                engine.explain(req.clone()).unwrap();
            });
        }
    });

    // Phase 2 — the 10k-request telemetry replay.
    let values_a = drive(&engine, &requests, 8);
    let stats = engine.stats();
    assert_eq!(stats.completed, 10_000 + burst.len() as u64);
    assert_eq!(
        stats.rejected_queue_full
            + stats.rejected_deadline_unmeetable
            + stats.rejected_deadline_expired
            + stats.rejected_unknown_model
            + stats.rejected_unknown_method
            + stats.rejected_invalid,
        0,
        "generous budgets and a deep queue: nothing rejected"
    );
    assert!(
        stats.cache_hit_rate > 0.5,
        "the replay re-asks a small set of telemetry windows: hit rate {}",
        stats.cache_hit_rate
    );
    assert!(
        stats.max_batch >= 2,
        "the cold burst must form a multi-request batch, max={}",
        stats.max_batch
    );
    assert!(stats.explain_errors == 0);
    // Every attribution satisfies the efficiency axiom of its method
    // family (spot-check a sample rather than 10k full checks).
    for v in values_a.iter().step_by(997) {
        assert!(v.iter().all(|x| x.is_finite()));
    }

    // Phase 3 — determinism: a fresh engine with the same seed serving the
    // same stream (different thread interleavings, different batch shapes)
    // returns bit-for-bit identical attributions.
    let engine_b = build_engine(42);
    let values_b = drive(&engine_b, &requests, 3);
    assert_eq!(values_a, values_b, "seed fixes every attribution exactly");

    engine.shutdown();
    engine_b.shutdown();
}

#[test]
fn backpressure_rejects_instead_of_blocking() {
    let (_schema, rows) = telemetry_rows(17);
    let (_gbdt, _linear, mlp, names, bg) = trained_models(17);
    // One slow worker, a four-slot queue, no batching: overload must
    // surface as immediate QueueFull rejects, not unbounded waiting.
    // Anytime degradation is pinned off so queue-full pressure keeps its
    // pre-anytime reject-with-reason contract; the coarse-then-refine path
    // has its own test (`queue_full_degrades_to_coarse_then_upgrades_in_place`).
    let engine = ServeEngine::start(ServeConfig {
        workers: 1,
        queue_capacity: 4,
        max_batch: 1,
        cache_capacity: 64,
        cache_shards: 2,
        quantization_grid: 1e-6,
        seed: 17,
        anytime: AnytimePolicy {
            enabled: false,
            ..AnytimePolicy::default()
        },
        ..ServeConfig::default()
    });
    engine
        .registry()
        .register("mlp", ServeModel::Mlp(mlp), names, bg)
        .unwrap();

    let n_clients = 16;
    let per_client = 4;
    let barrier = Arc::new(Barrier::new(n_clients));
    let t0 = std::time::Instant::now();
    let outcomes: Vec<Result<ExplainResponse, ServeError>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n_clients)
            .map(|c| {
                let barrier = Arc::clone(&barrier);
                let engine = &engine;
                let rows = &rows;
                s.spawn(move || {
                    barrier.wait();
                    (0..per_client)
                        .map(|i| {
                            // Unique features per request: no cache relief.
                            let mut f = rows[(c * per_client + i) % rows.len()].clone();
                            f[0] += (c * per_client + i) as f64;
                            engine.explain(ExplainRequest {
                                model_id: "mlp".into(),
                                features: f,
                                method: ExplainMethod::Lime { n_samples: 600 },
                                budget: Duration::from_secs(30),
                            })
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let elapsed = t0.elapsed();

    let served = outcomes.iter().filter(|o| o.is_ok()).count();
    let queue_full = outcomes
        .iter()
        .filter(|o| matches!(o, Err(ServeError::Rejected(RejectReason::QueueFull { .. }))))
        .count();
    assert_eq!(served + queue_full, outcomes.len(), "only serve or reject");
    assert!(served > 0, "the queue drains: some requests are served");
    assert!(
        queue_full > 0,
        "64 concurrent slow requests against a 4-slot queue must shed load"
    );
    let stats = engine.stats();
    assert_eq!(stats.rejected_queue_full as usize, queue_full);
    assert!(
        elapsed < Duration::from_secs(30),
        "rejects return immediately; nothing blocks on a full queue"
    );
    engine.shutdown();
}

#[test]
fn expired_deadlines_are_dropped_not_served_late() {
    let (_schema, rows) = telemetry_rows(23);
    let (_gbdt, _linear, mlp, names, bg) = trained_models(23);
    let engine = ServeEngine::start(ServeConfig {
        workers: 1,
        queue_capacity: 64,
        max_batch: 1,
        cache_capacity: 64,
        cache_shards: 2,
        quantization_grid: 1e-6,
        seed: 23,
        ..ServeConfig::default()
    });
    engine
        .registry()
        .register("mlp", ServeModel::Mlp(mlp), names, bg)
        .unwrap();

    // Saturate the single worker with slow requests, then submit requests
    // whose budget cannot survive the backlog.
    let outcomes: Vec<Result<ExplainResponse, ServeError>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|c| {
                let engine = &engine;
                let rows = &rows;
                s.spawn(move || {
                    let mut f = rows[c % rows.len()].clone();
                    f[0] += c as f64;
                    let budget = if c < 4 {
                        Duration::from_secs(30)
                    } else {
                        // Far below one LIME evaluation's cost.
                        Duration::from_micros(200)
                    };
                    engine.explain(ExplainRequest {
                        model_id: "mlp".into(),
                        features: f,
                        method: ExplainMethod::Lime { n_samples: 600 },
                        budget,
                    })
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let deadline_rejects = outcomes
        .iter()
        .filter(|o| {
            matches!(
                o,
                Err(ServeError::Rejected(
                    RejectReason::DeadlineExpired { .. } | RejectReason::DeadlineUnmeetable { .. }
                ))
            )
        })
        .count();
    assert!(
        deadline_rejects > 0,
        "microsecond budgets behind a saturated worker must be shed: {outcomes:?}"
    );
    engine.shutdown();
}
