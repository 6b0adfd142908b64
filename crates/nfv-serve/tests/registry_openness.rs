//! The open explainer registry, exercised end to end through the serving
//! stack: `interactions` (the first method added through the registry
//! rather than the legacy enum) serves via engine and cluster; a custom
//! explainer registered *by this test* — no `nfv-serve` source touched —
//! serves through the same path; capability misses and unknown method
//! ids surface as typed rejects at admission; the anytime coarsening
//! divisor is per-(model, method) configuration, not a crate constant;
//! a plug-in that panics answers `Internal` without taking its worker
//! down; one whose factory panics leaves no single-flight entry behind;
//! and one whose validator panics answers `Internal` in process.

use nfv_data::prelude::*;
use nfv_ml::prelude::*;
use nfv_serve::prelude::*;
use nfv_xai::prelude::*;
use nfv_xai::XaiError;
use std::time::Duration;

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

fn req(x: &[f64], method: ExplainMethod) -> ExplainRequest {
    ExplainRequest {
        model_id: "m".into(),
        features: x.to_vec(),
        method,
        budget: Duration::from_secs(10),
    }
}

/// `interactions` serves through the engine: a d² attribution whose
/// flattened values still satisfy efficiency exactly, cached like any
/// other method, and bit-identical through the sharded cluster.
#[test]
fn interactions_serve_through_engine_and_cluster() {
    let (model, names, bg, synth) = fitted(17);
    let d = names.len();

    let engine = ServeEngine::start(ServeConfig::default());
    engine
        .registry()
        .register(
            "m",
            ServeModel::Gbdt(model.clone()),
            names.clone(),
            bg.clone(),
        )
        .unwrap();
    let row = synth.data.row(0);
    let first = engine
        .explain(req(row, ExplainMethod::Interactions))
        .unwrap();
    assert_eq!(first.attribution.values.len(), d * d);
    assert!(first.attribution.efficiency_gap().abs() < 1e-8);
    // Off-diagonal entries are named pairwise; the matrix is symmetric.
    assert_eq!(
        first.attribution.names[1],
        format!("{}×{}", names[0], names[1])
    );
    assert_eq!(
        first.attribution.values[1].to_bits(),
        first.attribution.values[d].to_bits(),
        "interaction matrix must be symmetric"
    );
    let again = engine
        .explain(req(row, ExplainMethod::Interactions))
        .unwrap();
    assert!(again.cache_hit, "identical interactions question must hit");
    assert_eq!(again.attribution, first.attribution);
    engine.shutdown();

    // The cluster answers the same bits: interactions are exact, and the
    // request key (interned method id + budget word) is shard-agnostic.
    let cluster = ServeCluster::start(ClusterConfig {
        shards: 3,
        ..ClusterConfig::default()
    });
    cluster
        .register("m", ServeModel::Gbdt(model), names, bg)
        .unwrap();
    let via_cluster = cluster
        .explain(&req(row, ExplainMethod::Interactions))
        .unwrap();
    assert_eq!(via_cluster.attribution, first.attribution);
    cluster.shutdown();
}

/// Interaction matrices are exponential in d, so the registry's validator
/// caps them; a model wider than the cap gets the typed reject at
/// admission, not a mid-flight explain error.
#[test]
fn interactions_above_the_feature_cap_get_a_typed_reject() {
    let synth = friedman1(120, 20, 0.1, 23).unwrap();
    let model = Gbdt::fit(
        &synth.data,
        &GbdtParams {
            n_rounds: 3,
            ..Default::default()
        },
        0,
    )
    .unwrap();
    let bg = Background::from_dataset(&synth.data, 8, 1).unwrap();
    let engine = ServeEngine::start(ServeConfig::default());
    engine
        .registry()
        .register("m", ServeModel::Gbdt(model), synth.data.names.clone(), bg)
        .unwrap();
    let err = engine
        .explain(req(synth.data.row(0), ExplainMethod::Interactions))
        .unwrap_err();
    match err {
        ServeError::Rejected(RejectReason::InvalidRequest { ref reason }) => {
            assert!(
                reason.contains("interactions"),
                "reason names the method: {reason}"
            );
        }
        other => panic!("expected InvalidRequest, got {other:?}"),
    }
    engine.shutdown();
}

/// A method id nothing ever registered is a *dispatch miss*, answered
/// with the dedicated typed reject — distinct from a capability mismatch.
#[test]
fn unknown_method_ids_get_the_dedicated_reject() {
    let (model, names, bg, synth) = fitted(29);
    let engine = ServeEngine::start(ServeConfig::default());
    engine
        .registry()
        .register("m", ServeModel::Gbdt(model), names, bg)
        .unwrap();
    let err = engine
        .explain(req(
            synth.data.row(0),
            ExplainMethod::custom("nobody-registered-this", 4),
        ))
        .unwrap_err();
    assert!(
        matches!(
            err,
            ServeError::Rejected(RejectReason::UnknownMethod { .. })
        ),
        "expected UnknownMethod, got {err:?}"
    );
    engine.shutdown();
}

/// A test-local explainer: splits `f(x) − E[f]` uniformly across the
/// features. Deliberately trivial — what matters is that it reaches the
/// worker through the registry with zero `nfv-serve` changes.
struct UniformCredit;

impl Explainer for UniformCredit {
    fn tag(&self) -> &'static str {
        "uniform-credit"
    }
    fn fusable(&self) -> bool {
        false
    }
    fn plan(
        &self,
        _ctx: &ExplainContext<'_>,
        _ws: &mut CoalitionWorkspace,
        _block: &mut FusedBlock,
    ) -> Result<Box<dyn ExplainPlan>, XaiError> {
        Err(XaiError::Input("uniform-credit does not fuse".into()))
    }
    fn direct(
        &self,
        ctx: &ExplainContext<'_>,
        _ws: &mut CoalitionWorkspace,
    ) -> Result<Attribution, XaiError> {
        let base = ctx.base_value();
        let prediction = ctx.model.predict(ctx.x);
        let share = (prediction - base) / ctx.x.len() as f64;
        Ok(Attribution {
            names: ctx.names.into(),
            values: vec![share; ctx.x.len()],
            base_value: base,
            prediction,
            method: "uniform-credit".into(),
        })
    }
}

/// The whole point of the registry: this test registers its own method
/// into the process-global registry and serves it through the engine and
/// the cluster — no `nfv-serve` source was modified to make that happen.
#[test]
fn a_plugin_registered_by_the_test_serves_end_to_end() {
    MethodRegistry::global().register("uniform-credit", |_cfg| Ok(Box::new(UniformCredit)));

    let (model, names, bg, synth) = fitted(31);
    let method = ExplainMethod::custom("uniform-credit", 1);

    let engine = ServeEngine::start(ServeConfig::default());
    engine
        .registry()
        .register(
            "m",
            ServeModel::Gbdt(model.clone()),
            names.clone(),
            bg.clone(),
        )
        .unwrap();
    let row = synth.data.row(3);
    let resp = engine.explain(req(row, method)).unwrap();
    assert_eq!(resp.attribution.method, "uniform-credit");
    assert!(resp.attribution.efficiency_gap().abs() < 1e-9);
    let spread = resp.attribution.values[0];
    assert!(resp
        .attribution
        .values
        .iter()
        .all(|v| v.to_bits() == spread.to_bits()));
    // Same key → cache hit; the method id is the FNV of the name, so the
    // service class is stable across processes too.
    let again = engine.explain(req(row, method)).unwrap();
    assert!(again.cache_hit);
    assert_eq!(again.attribution, resp.attribution);
    // The registry also resolves the display name back from the id.
    assert_eq!(method.display_name(), "uniform-credit");
    engine.shutdown();

    let cluster = ServeCluster::start(ClusterConfig {
        shards: 2,
        ..ClusterConfig::default()
    });
    cluster
        .register("m", ServeModel::Gbdt(model), names, bg)
        .unwrap();
    let via_cluster = cluster.explain(&req(row, method)).unwrap();
    assert_eq!(via_cluster.attribution, resp.attribution);
    cluster.shutdown();
}

/// The anytime coarsening divisor is per-(model, method) configuration:
/// a kernel-SHAP class tuned to ÷ 4 degrades to 512/4 = 128 coalitions,
/// while sampling-Shapley — left at the default — degrades by
/// [`DEFAULT_ANYTIME_DIVISOR`].
#[test]
fn anytime_divisors_degrade_per_service_class() {
    let (model, names, bg, synth) = fitted(41);
    let engine = ServeEngine::start(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    });
    engine
        .registry()
        .register("m", ServeModel::Gbdt(model), names, bg)
        .unwrap();
    engine.registry().set_anytime_divisor("m", "kernel-shap", 4);

    // Distinct rows: every request is a distinct cache key, so no
    // single-flight follower can ride a leader past admission.
    let flood = |method: ExplainMethod, row_base: usize| -> Vec<ExplainResponse> {
        let engine_ref = &engine;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..16)
                .map(|i| {
                    let row = synth.data.row(row_base + i);
                    s.spawn(move || engine_ref.explain(req(row, method)).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    };

    // Tuned class: coarse answers carry budget / 4.
    let kernel_coarse: Vec<u64> = flood(ExplainMethod::KernelShap { n_coalitions: 512 }, 0)
        .iter()
        .filter_map(|r| match r.fidelity {
            Fidelity::Coarse { sample_budget } => Some(sample_budget),
            _ => None,
        })
        .collect();
    assert!(
        !kernel_coarse.is_empty(),
        "a 1-slot queue under 12 concurrent requests must degrade"
    );
    for budget in &kernel_coarse {
        assert_eq!(*budget, 512 / 4, "tuned divisor must govern kernel-shap");
    }

    // Untuned class on the same model: the crate default ÷ 8 still rules.
    let sampling_coarse: Vec<u64> = flood(
        ExplainMethod::SamplingShapley {
            n_permutations: 256,
            antithetic: false,
        },
        32,
    )
    .iter()
    .filter_map(|r| match r.fidelity {
        Fidelity::Coarse { sample_budget } => Some(sample_budget),
        _ => None,
    })
    .collect();
    assert!(!sampling_coarse.is_empty(), "sampling flood must degrade");
    for budget in &sampling_coarse {
        assert_eq!(
            *budget,
            256 / DEFAULT_ANYTIME_DIVISOR,
            "untuned class keeps the default divisor"
        );
    }
    engine.shutdown();
}

/// A test-local explainer that panics: in `plan()` when `in_plan`, else in
/// `direct()` (its plan refuses, so the worker runs it alone).
struct Panicky {
    in_plan: bool,
}

impl Explainer for Panicky {
    fn tag(&self) -> &'static str {
        "panicky"
    }
    fn plan(
        &self,
        _ctx: &ExplainContext<'_>,
        _ws: &mut CoalitionWorkspace,
        _block: &mut FusedBlock,
    ) -> Result<Box<dyn ExplainPlan>, XaiError> {
        if self.in_plan {
            panic!("panicky plan()");
        }
        Err(XaiError::Input("panicky runs alone".into()))
    }
    fn direct(
        &self,
        _ctx: &ExplainContext<'_>,
        _ws: &mut CoalitionWorkspace,
    ) -> Result<Attribution, XaiError> {
        panic!("panicky direct()");
    }
}

/// A plug-in that panics takes down its own request, not the worker: the
/// request and its identical retry both answer `Internal` (the first one's
/// single-flight entry is resolved, so the retry does not wait out its
/// budget on it), the lone worker then serves TreeSHAP, and every panic is
/// an explain error. Each call runs on its own thread behind a bounded
/// wait, so an engine that loses its worker fails here instead of hanging.
#[test]
fn a_panicking_plugin_answers_internal_and_the_worker_keeps_serving() {
    MethodRegistry::global().register("panics-in-direct", |_cfg| {
        Ok(Box::new(Panicky { in_plan: false }))
    });
    MethodRegistry::global().register("panics-in-plan", |_cfg| {
        Ok(Box::new(Panicky { in_plan: true }))
    });
    let (model, names, bg, synth) = fitted(43);
    let engine = std::sync::Arc::new(ServeEngine::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    }));
    engine
        .registry()
        .register("m", ServeModel::Gbdt(model), names, bg)
        .unwrap();
    let within_bound = |request: ExplainRequest| -> Result<ExplainResponse, ServeError> {
        let (tx, rx) = crossbeam::channel::bounded(1);
        let engine = std::sync::Arc::clone(&engine);
        let caller = std::thread::spawn(move || {
            let _ = tx.send(engine.explain(request));
        });
        let answer = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the engine answers within 10 s");
        caller.join().expect("the caller thread returns");
        answer
    };
    let row = synth.data.row(5);
    let mut panics = 0;
    for name in ["panics-in-direct", "panics-in-plan"] {
        let request = ExplainRequest {
            budget: Duration::from_millis(300),
            ..req(row, ExplainMethod::custom(name, 1))
        };
        for attempt in ["first call", "identical retry"] {
            match within_bound(request.clone()) {
                Err(ServeError::Internal(_)) => panics += 1,
                other => panic!("{name}, {attempt}: expected Internal, got {other:?}"),
            }
        }
    }
    let tree = within_bound(req(row, ExplainMethod::TreeShap)).expect("TreeSHAP after the panics");
    assert!(tree.attribution.efficiency_gap().abs() < 1e-8);
    assert_eq!(
        engine.stats().explain_errors,
        panics,
        "{:?}",
        engine.stats()
    );
}

/// A plug-in whose factory panics: the factory is plug-in code, run on the
/// worker that plans the request, under its containment. The first call
/// may unwind or answer `Internal`; either way it leaves no flight behind,
/// so the identical retry with a 300 ms budget returns at once instead of
/// waiting out its budget behind a leader that is gone.
#[test]
fn a_panicking_factory_leaves_no_flight_behind() {
    MethodRegistry::global().register("panics-in-factory", |_cfg| panic!("panicky factory"));
    let (model, names, bg, synth) = fitted(47);
    let engine = std::sync::Arc::new(ServeEngine::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    }));
    engine
        .registry()
        .register("m", ServeModel::Gbdt(model), names, bg)
        .unwrap();
    let request = ExplainRequest {
        budget: Duration::from_millis(300),
        ..req(
            synth.data.row(2),
            ExplainMethod::custom("panics-in-factory", 1),
        )
    };
    // How long a call takes to return: by an answer, which must be
    // `Internal`, or by unwinding its thread. Bounded at 10 s.
    let returns_after = |request: ExplainRequest| -> Duration {
        let (tx, rx) = crossbeam::channel::bounded(1);
        let engine = std::sync::Arc::clone(&engine);
        let started = std::time::Instant::now();
        std::thread::spawn(move || {
            let _ = tx.send(engine.explain(request));
        });
        match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(Err(ServeError::Internal(_)))
            | Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {}
            other => panic!("expected Internal or an unwind, got {other:?}"),
        }
        started.elapsed()
    };
    returns_after(request.clone());
    let retry = returns_after(request);
    assert!(
        retry < Duration::from_millis(150),
        "the identical retry took {retry:?} of its 300 ms"
    );
}

/// A plug-in whose capability validator panics: an in-process explain
/// answers `Internal` instead of unwinding into its caller, counts as an
/// explain error, and the engine serves the next request.
#[test]
fn a_panicking_validator_answers_internal_in_process() {
    MethodRegistry::global().register_with_validator(
        "panics-in-validator",
        |_cfg| Err(XaiError::Input("never instantiated".into())),
        |_caps| panic!("injected validator panic"),
    );
    let (model, names, bg, synth) = fitted(53);
    let engine = ServeEngine::start(ServeConfig::default());
    engine
        .registry()
        .register("m", ServeModel::Gbdt(model), names, bg)
        .unwrap();
    let row = synth.data.row(3);
    let err = engine
        .explain(req(row, ExplainMethod::custom("panics-in-validator", 1)))
        .unwrap_err();
    assert!(
        matches!(err, ServeError::Internal(ref m) if m.contains("panicked")),
        "expected Internal, got {err:?}"
    );
    let stats = engine.stats();
    assert_eq!(stats.explain_errors, 1, "{stats:?}");
    assert_eq!(stats.rejected_invalid, 0, "{stats:?}");
    let tree = engine.explain(req(row, ExplainMethod::TreeShap)).unwrap();
    assert!(tree.attribution.efficiency_gap().abs() < 1e-8);
    engine.shutdown();
}
