//! Integration surface of `nfv-serve`: lifecycle (register → serve →
//! re-register → deregister), stats serialization, and cache eviction
//! under a capacity squeeze — all through the public prelude only.

use nfv_data::prelude::*;
use nfv_ml::prelude::*;
use nfv_serve::prelude::*;
use nfv_xai::prelude::*;
use std::time::Duration;

mod common;
use common::serve_as_backlog;

fn fitted(seed: u64) -> (Gbdt, Vec<String>, Background, SynthData) {
    let synth = friedman1(300, 5, 0.1, seed).unwrap();
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
    let names = synth.data.names.clone();
    (model, names, bg, synth)
}

fn tree_req(x: &[f64]) -> ExplainRequest {
    ExplainRequest {
        model_id: "m".into(),
        features: x.to_vec(),
        method: ExplainMethod::TreeShap,
        budget: Duration::from_secs(2),
    }
}

#[test]
fn lifecycle_register_serve_deregister() {
    let (model, names, bg, synth) = fitted(5);
    let engine = ServeEngine::start(ServeConfig::default());
    let v = engine
        .registry()
        .register("m", ServeModel::Gbdt(model), names, bg)
        .unwrap();
    let resp = engine.explain(tree_req(synth.data.row(0))).unwrap();
    assert_eq!(resp.model_version, v);
    assert!(resp.attribution.efficiency_gap().abs() < 1e-8);

    assert!(engine.registry().deregister("m"));
    engine.invalidate_model("m");
    assert_eq!(engine.cache_len(), 0, "invalidation empties the cache");
    let err = engine.explain(tree_req(synth.data.row(0))).unwrap_err();
    assert!(matches!(
        err,
        ServeError::Rejected(RejectReason::UnknownModel { .. })
    ));
    engine.shutdown();
}

#[test]
fn stats_snapshot_round_trips_through_json() {
    let (model, names, bg, synth) = fitted(9);
    let engine = ServeEngine::start(ServeConfig::default());
    engine
        .registry()
        .register("m", ServeModel::Gbdt(model), names, bg)
        .unwrap();
    for i in 0..8 {
        engine.explain(tree_req(synth.data.row(i % 4))).unwrap();
    }
    let stats = engine.stats();
    assert_eq!(stats.completed, 8);
    assert!(stats.cache_hits >= 4, "rows repeat: {stats:?}");
    let json = serde_json::to_string_pretty(&stats).unwrap();
    let back: ServeStats = serde_json::from_str(&json).unwrap();
    assert_eq!(back, stats);
    engine.shutdown();
}

fn kernel_req(x: &[f64], n_coalitions: usize) -> ExplainRequest {
    ExplainRequest {
        model_id: "m".into(),
        features: x.to_vec(),
        method: ExplainMethod::KernelShap { n_coalitions },
        budget: Duration::from_secs(5),
    }
}

#[test]
fn concurrent_identical_misses_evaluate_once() {
    let (model, names, bg, synth) = fitted(21);
    let engine = ServeEngine::start(ServeConfig::default());
    engine
        .registry()
        .register("m", ServeModel::Gbdt(model), names, bg)
        .unwrap();
    // 8 threads fire the *same* uncached request at once. Single-flight
    // must elect one leader; everyone else rides its result (as a flight
    // follower or, if they arrive late, a cache hit) — so the model is
    // evaluated exactly once.
    let responses: Vec<ExplainResponse> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| s.spawn(|| engine.explain(kernel_req(synth.data.row(0), 64)).unwrap()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let stats = engine.stats();
    assert_eq!(stats.completed, 8, "{stats:?}");
    assert_eq!(
        stats.cache_misses, 1,
        "one evaluation for 8 identical concurrent misses: {stats:?}"
    );
    for r in &responses[1..] {
        assert_eq!(
            r.attribution, responses[0].attribution,
            "every caller sees the leader's exact result"
        );
    }
    engine.shutdown();
}

#[test]
fn fused_group_with_failing_job_completes_the_rest() {
    let (model, names, bg, synth) = fitted(23);
    let engine = ServeEngine::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    engine
        .registry()
        .register("m", ServeModel::Gbdt(model), names, bg)
        .unwrap();
    // Rows 1..5 are valid fusable requests; the zero-budget request must
    // fail at plan time without poisoning the rest of its fusion group.
    let mut jobs = vec![kernel_req(synth.data.row(0), 0)];
    jobs.extend((1..5).map(|i| kernel_req(synth.data.row(i), 64)));
    let outcomes = serve_as_backlog(&engine, "plug-failing-job", jobs);
    assert!(
        matches!(outcomes[0], Err(ServeError::Explain(_))),
        "zero coalition budget errors: {:?}",
        outcomes[0]
    );
    for (i, o) in outcomes.iter().enumerate().skip(1) {
        let resp = o.as_ref().unwrap_or_else(|e| panic!("job {i}: {e}"));
        assert!(resp.attribution.efficiency_gap().abs() < 1e-6);
        assert_eq!(resp.batch_size, 4, "job {i}: the survivors share a block");
    }
    let stats = engine.stats();
    // The four survivors and the plug.
    assert_eq!(stats.completed, 5, "{stats:?}");
    assert_eq!(stats.explain_errors, 1, "{stats:?}");
    engine.shutdown();
}

#[test]
fn a_backlog_and_one_at_a_time_agree_bitwise() {
    let (model, names, bg, synth) = fitted(27);
    let engines = [(); 2].map(|_| {
        let engine = ServeEngine::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        engine
            .registry()
            .register(
                "m",
                ServeModel::Gbdt(model.clone()),
                names.clone(),
                bg.clone(),
            )
            .unwrap();
        engine
    });
    let [stacked, alone] = &engines;
    // The seven fusable methods and TreeSHAP, whose plan refuses, mixed:
    // one backlog on the first engine, so the nine fusable requests share
    // one block and the refused one runs alone beside it; one request at a
    // time on the second, so each runs the pipeline on its own. Seeds
    // derive from request content, so the execution shape must not matter.
    let methods = [
        ExplainMethod::KernelShap { n_coalitions: 64 },
        ExplainMethod::SamplingShapley {
            n_permutations: 8,
            antithetic: true,
        },
        ExplainMethod::ExactShapley,
        ExplainMethod::GroupedShapley,
        ExplainMethod::Permutation,
        ExplainMethod::Lime { n_samples: 64 },
        ExplainMethod::TreeShap,
        ExplainMethod::Interactions,
    ];
    let refused = |m: ExplainMethod| matches!(m, ExplainMethod::TreeShap);
    let jobs: Vec<ExplainRequest> = (0..10)
        .map(|i| ExplainRequest {
            method: methods[i % methods.len()],
            ..kernel_req(synth.data.row(i), 64)
        })
        .collect();
    let stacked_resp: Vec<ExplainResponse> =
        serve_as_backlog(stacked, "plug-bitwise", jobs.clone())
            .into_iter()
            .map(|o| o.unwrap())
            .collect();
    let stats = stacked.stats();
    assert_eq!(
        (stats.fused_groups, stats.fused_requests),
        (1, 9),
        "the backlog fuses into one group: {stats:?}"
    );
    assert!(stats.fused_fill_ratio > 0.0, "{stats:?}");
    for (i, (s, job)) in stacked_resp.iter().zip(jobs).enumerate() {
        if refused(job.method) {
            assert_eq!(s.batch_size, 1, "request {i} ran alone");
        } else {
            assert_eq!(s.batch_size, 9, "request {i} rode the shared block");
        }
        let a = alone.explain(job).unwrap();
        assert_eq!(a.batch_size, 1);
        let (s, a) = (&s.attribution, &a.attribution);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            (
                bits(&s.values),
                s.base_value.to_bits(),
                s.prediction.to_bits()
            ),
            (
                bits(&a.values),
                a.base_value.to_bits(),
                a.prediction.to_bits()
            ),
            "request {i} ({}): stacking changed a bit",
            s.method
        );
    }
    assert_eq!(alone.stats().fused_groups, 0, "nothing to stack with");
    for engine in engines {
        engine.shutdown();
    }
}

#[test]
fn answers_share_the_registered_feature_names() {
    let (model, names, bg, synth) = fitted(37);
    let engine = ServeEngine::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    engine
        .registry()
        .register("m", ServeModel::Gbdt(model), names.clone(), bg)
        .unwrap();
    let entry = engine.registry().get("m").unwrap();
    let shares = |resp: &ExplainResponse| {
        assert_eq!(*resp.attribution.names, *names);
        std::sync::Arc::ptr_eq(&resp.attribution.names, &entry.feature_names)
    };
    // The direct path (a lone request of each kind) …
    let lime = ExplainRequest {
        method: ExplainMethod::Lime { n_samples: 64 },
        ..tree_req(synth.data.row(0))
    };
    for req in [tree_req(synth.data.row(0)), lime] {
        let resp = engine.explain(req).unwrap();
        assert!(shares(&resp), "{}", resp.attribution.method);
    }
    // … and the fused one: every answer points at the entry's copy, so a
    // full cache holds the names once per model, not once per entry.
    let jobs = (1..4).map(|i| kernel_req(synth.data.row(i), 64)).collect();
    for outcome in serve_as_backlog(&engine, "plug-names", jobs) {
        let resp = outcome.unwrap();
        assert_eq!(resp.batch_size, 3);
        assert!(shares(&resp));
    }
    // A group-valued method names its own units; those are left alone.
    let grouped = engine
        .explain(ExplainRequest {
            method: ExplainMethod::GroupedShapley,
            ..tree_req(synth.data.row(0))
        })
        .unwrap();
    assert_ne!(*grouped.attribution.names, *names);
    engine.shutdown();
}

#[test]
fn tiny_cache_evicts_but_stays_correct() {
    let (model, names, bg, synth) = fitted(13);
    let engine = ServeEngine::start(ServeConfig {
        cache_capacity: 4,
        // Exact-only mode: this test is about eviction never changing
        // *exact* results, so the quantized demotion tier is disabled
        // (two-tier behaviour has its own tests).
        cold_capacity: 0,
        cache_shards: 1,
        ..ServeConfig::default()
    });
    engine
        .registry()
        .register("m", ServeModel::Gbdt(model), names, bg)
        .unwrap();
    // First pass computes 20 distinct answers through a 4-slot cache.
    let first: Vec<_> = (0..20)
        .map(|i| engine.explain(tree_req(synth.data.row(i))).unwrap())
        .collect();
    assert!(engine.cache_len() <= 4);
    // Second pass recomputes evicted entries; answers must be identical
    // (deterministic TreeSHAP), eviction only costs time, never changes
    // results.
    for (i, old) in first.iter().enumerate() {
        let again = engine.explain(tree_req(synth.data.row(i))).unwrap();
        assert_eq!(again.attribution, old.attribution);
    }
    engine.shutdown();
}

#[test]
fn queue_full_degrades_to_coarse_then_upgrades_in_place() {
    let (model, names, bg, synth) = fitted(41);
    // One worker, a one-slot queue: while the worker grinds a big request,
    // concurrent arrivals overflow admission. With anytime enabled the
    // overflow is served a coarse (budget ÷ 8) attribution inline instead
    // of a QueueFull rejection.
    let engine = ServeEngine::start(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    });
    engine
        .registry()
        .register(
            "m",
            ServeModel::Gbdt(model.clone()),
            names.clone(),
            bg.clone(),
        )
        .unwrap();
    let engine_ref = &engine;
    let responses: Vec<ExplainResponse> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..12)
            .map(|i| {
                let row = synth.data.row(i % 8);
                s.spawn(move || engine_ref.explain(kernel_req(row, 512)).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Nothing was rejected, and at least one response is degraded.
    let coarse: Vec<&ExplainResponse> = responses
        .iter()
        .filter(|r| matches!(r.fidelity, Fidelity::Coarse { .. }))
        .collect();
    let stats = engine.stats();
    assert!(
        !coarse.is_empty(),
        "a 1-slot queue under 12 concurrent requests must degrade: {stats:?}"
    );
    // Single-flight followers can ride a coarse leader's result, so the
    // counter tracks inline degradations, a subset of coarse responses.
    assert!(
        stats.degraded_served >= 1 && stats.degraded_served <= coarse.len() as u64,
        "{stats:?}"
    );
    match coarse[0].fidelity {
        Fidelity::Coarse { sample_budget } => assert_eq!(sample_budget, 512 / 8),
        ref other => panic!("wrong fidelity: {other:?}"),
    }

    // The coarse entries upgrade in place: polling each flooded key
    // eventually returns an exact answer (grade-0 hits re-request
    // refinement, so even a dropped refine job heals).
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut upgraded = Vec::new();
    for i in 0..8 {
        let row = synth.data.row(i);
        loop {
            let resp = engine.explain(kernel_req(row, 512)).unwrap();
            if resp.fidelity == Fidelity::Exact {
                upgraded.push(resp);
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "coarse entry for row {i} never upgraded: {:?}",
                engine.stats()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    assert!(engine.stats().refined_entries >= 1);

    // The upgraded results are bit-identical to an engine that never
    // degraded: refinement re-seeds from the original request content.
    let calm = ServeEngine::start(ServeConfig::default());
    calm.registry()
        .register("m", ServeModel::Gbdt(model), names, bg)
        .unwrap();
    for (i, up) in upgraded.iter().enumerate() {
        let full = calm.explain(kernel_req(synth.data.row(i), 512)).unwrap();
        assert_eq!(
            up.attribution, full.attribution,
            "row {i}: refined entry must equal the never-degraded result"
        );
    }
    calm.shutdown();
    engine.shutdown();
}

#[test]
fn fused_dedup_savings_surface_in_stats() {
    // Exact Shapley enumerates every coalition, including the *full* one
    // whose composite block is x repeated once per background row — a
    // guaranteed run of bit-identical adjacent rows. Two queued exact
    // requests fuse into one block; the dedup pass must skip those rows
    // and the engine must surface the savings (and the SoA kernel's
    // name) in its stats snapshot.
    let (model, names, bg, synth) = fitted(31);
    let n_bg = bg.rows().len();
    let engine = ServeEngine::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    engine
        .registry()
        .register("m", ServeModel::Gbdt(model), names, bg)
        .unwrap();
    let exact = |x: &[f64]| ExplainRequest {
        model_id: "m".into(),
        features: x.to_vec(),
        method: ExplainMethod::ExactShapley,
        budget: Duration::from_secs(5),
    };
    let jobs = (0..2).map(|i| exact(synth.data.row(i))).collect();
    for outcome in serve_as_backlog(&engine, "plug-dedup", jobs) {
        let resp = outcome.unwrap();
        assert!(resp.attribution.efficiency_gap().abs() < 1e-6);
        assert_eq!(resp.batch_size, 2, "the two requests share a block");
    }
    let stats = engine.stats();
    assert_eq!(stats.fused_groups, 1, "requests must fuse: {stats:?}");
    // Each request's full coalition contributes n_bg - 1 skipped rows at
    // minimum (other coalition rows may coincide too).
    assert!(
        stats.dedup_rows_saved >= (n_bg as u64 - 1),
        "dedup savings must be observable: {stats:?}"
    );
    // The savings survive the cluster rollup.
    let agg = ServeStats::aggregate(&[stats.clone(), ServeStats::default()]);
    assert_eq!(agg.dedup_rows_saved, stats.dedup_rows_saved);
    engine.shutdown();
}
