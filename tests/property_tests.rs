//! Property-based tests (proptest) on the invariants the whole stack
//! leans on: Shapley efficiency on arbitrary models, histogram/quantile
//! laws, queueing monotonicity, dataset round-trips, and rank-metric
//! bounds.

use nfv_data::prelude::*;
use nfv_data::stats;
use nfv_ml::prelude::*;
use nfv_sim::prelude::*;
use nfv_sim::queueing;
use nfv_sim::rng::SimRng;
use nfv_xai::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exact Shapley is efficient for ANY polynomial model, instance and
    /// background.
    #[test]
    fn exact_shapley_is_always_efficient(
        x in prop::collection::vec(-5.0f64..5.0, 3),
        bg_rows in prop::collection::vec(prop::collection::vec(-5.0f64..5.0, 3), 1..6),
        a in -2.0f64..2.0,
        b in -2.0f64..2.0,
        c in -2.0f64..2.0,
    ) {
        let bg = Background::from_rows(bg_rows).unwrap();
        let model = FnModel::new(3, move |v: &[f64]| {
            a * v[0] * v[1] + b * v[2] * v[2] + c * v[0]
        });
        let names: Vec<String> = (0..3).map(|i| format!("x{i}")).collect();
        let attr = exact_shapley(&model, &x, &bg, &names).unwrap();
        prop_assert!(attr.efficiency_gap().abs() < 1e-8,
            "gap {}", attr.efficiency_gap());
    }

    /// KernelSHAP's constraint makes it efficient at any budget.
    #[test]
    fn kernel_shap_is_always_efficient(
        x in prop::collection::vec(-3.0f64..3.0, 4),
        budget in 8usize..64,
        seed in 0u64..1000,
    ) {
        let bg = Background::from_rows(vec![
            vec![0.0, 0.5, -0.5, 1.0],
            vec![1.0, -1.0, 0.0, 0.0],
        ]).unwrap();
        let model = FnModel::new(4, |v: &[f64]| v[0].sin() + v[1] * v[2] - v[3]);
        let names: Vec<String> = (0..4).map(|i| format!("x{i}")).collect();
        let attr = kernel_shap(&model, &x, &bg, &names, &KernelShapConfig {
            n_coalitions: budget, ridge: 1e-8, seed,
        }).unwrap();
        prop_assert!(attr.efficiency_gap().abs() < 1e-7);
    }

    /// TreeSHAP is efficient on arbitrary fitted trees at arbitrary probes.
    #[test]
    fn tree_shap_is_always_efficient(
        seed in 0u64..500,
        probe in prop::collection::vec(0.0f64..1.0, 5),
    ) {
        let s = friedman1(150, 5, 0.3, seed).unwrap();
        let tree = DecisionTree::fit(&s.data, &TreeParams::default(), seed).unwrap();
        let names: Vec<String> = (0..5).map(|i| format!("x{i}")).collect();
        let attr = tree_shap(&tree, &probe, &names).unwrap();
        prop_assert!(attr.efficiency_gap().abs() < 1e-8,
            "gap {}", attr.efficiency_gap());
    }

    /// Histogram quantiles are monotone in q and bracketed by min/max.
    #[test]
    fn histogram_quantiles_are_monotone(
        samples in prop::collection::vec(1u64..10_000_000_000, 1..200),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let mut h = LatencyHistogram::new();
        for &s in &samples {
            h.record(SimDuration(s));
        }
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(h.quantile_secs(lo) <= h.quantile_secs(hi) + 1e-15);
        prop_assert!(h.quantile_secs(0.0) <= h.quantile_secs(1.0));
        // Interior quantiles are bucket midpoints: allow one bucket width
        // (~4.5%) of slack around the exact sample extremes.
        let min = *samples.iter().min().unwrap() as f64 * 1e-9;
        let max = *samples.iter().max().unwrap() as f64 * 1e-9;
        prop_assert!(h.quantile_secs(lo) >= min * 0.95 - 1e-12);
        prop_assert!(h.quantile_secs(hi) <= max * 1.05 + 1e-12);
    }

    /// M/G/1 wait grows with load and with service variability.
    #[test]
    fn mg1_wait_is_monotone(
        mu in 1.0f64..1000.0,
        rho1 in 0.05f64..0.9,
        drho in 0.01f64..0.09,
        cv in 0.0f64..2.0,
    ) {
        let ms = 1.0 / mu;
        let w1 = queueing::mg1_mean_wait(rho1 * mu, ms, cv);
        let w2 = queueing::mg1_mean_wait((rho1 + drho) * mu, ms, cv);
        prop_assert!(w2 >= w1);
        let w_smoother = queueing::mg1_mean_wait(rho1 * mu, ms, cv * 0.5);
        prop_assert!(w_smoother <= w1 + 1e-12);
    }

    /// CSV round-trip is lossless for arbitrary finite datasets.
    #[test]
    fn csv_roundtrip_is_lossless(
        rows in 1usize..20,
        cols in 1usize..6,
        seed in 0u64..10_000,
    ) {
        let mut rng = SimRng::new(seed);
        let x: Vec<f64> = (0..rows * cols).map(|_| rng.normal(0.0, 100.0)).collect();
        let y: Vec<f64> = (0..rows).map(|_| rng.normal(0.0, 10.0)).collect();
        let names: Vec<String> = (0..cols).map(|i| format!("c{i}")).collect();
        let d = Dataset::new(names, x, y, Task::Regression).unwrap();
        let back = from_csv(&to_csv(&d), Task::Regression).unwrap();
        prop_assert_eq!(back, d);
    }

    /// Rank correlations stay in [−1, 1] and are symmetric.
    #[test]
    fn rank_correlations_are_bounded_and_symmetric(
        a in prop::collection::vec(-100.0f64..100.0, 2..30),
        seed in 0u64..1000,
    ) {
        let mut rng = SimRng::new(seed);
        let b: Vec<f64> = a.iter().map(|v| v + rng.normal(0.0, 50.0)).collect();
        let sp = stats::spearman(&a, &b);
        let kt = stats::kendall_tau(&a, &b);
        prop_assert!((-1.0..=1.0).contains(&sp), "spearman {sp}");
        prop_assert!((-1.0..=1.0).contains(&kt), "kendall {kt}");
        prop_assert!((stats::spearman(&b, &a) - sp).abs() < 1e-12);
        prop_assert!((stats::kendall_tau(&b, &a) - kt).abs() < 1e-12);
    }

    /// The event queue dispatches any schedule in nondecreasing time order
    /// with FIFO ties.
    #[test]
    fn event_queue_is_totally_ordered(
        times in prop::collection::vec(0u64..1_000, 1..100),
    ) {
        let mut q = nfv_sim::event::EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime(t), i);
        }
        let mut last_time = SimTime::ZERO;
        let mut seen_at_time: Vec<usize> = Vec::new();
        while let Some((t, id)) = q.pop() {
            prop_assert!(t >= last_time);
            if t != last_time {
                seen_at_time.clear();
                last_time = t;
            }
            if let Some(&prev) = seen_at_time.last() {
                prop_assert!(id > prev, "FIFO tie-break violated");
            }
            seen_at_time.push(id);
        }
    }

    /// Scalers invert exactly on arbitrary rows within the fitted space.
    #[test]
    fn scaler_roundtrip(
        seed in 0u64..5_000,
        probe in prop::collection::vec(-50.0f64..50.0, 4),
    ) {
        let mut rng = SimRng::new(seed);
        let x: Vec<f64> = (0..80).map(|_| rng.normal(0.0, 10.0)).collect();
        let d = Dataset::new(
            (0..4).map(|i| format!("c{i}")).collect(),
            x,
            vec![0.0; 20],
            Task::Regression,
        ).unwrap();
        let sc = Scaler::standard(&d);
        let mut row = probe.clone();
        sc.transform_row(&mut row).unwrap();
        sc.inverse_row(&mut row).unwrap();
        for (a, b) in row.iter().zip(&probe) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// Tree predictions are always a convex combination of training
    /// targets (within [min y, max y]).
    #[test]
    fn tree_predictions_stay_in_target_range(
        seed in 0u64..2_000,
        probe in prop::collection::vec(-3.0f64..3.0, 4),
    ) {
        let s = linear_gaussian(100, 3, 1, 0.5, seed).unwrap();
        let tree = DecisionTree::fit(&s.data, &TreeParams::default(), seed).unwrap();
        let lo = s.data.y.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = s.data.y.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let p = Regressor::predict(&tree, &probe);
        prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "{p} outside [{lo}, {hi}]");
    }
}

/// Named, boxed fitted models for the batched-evaluation equivalence tests.
type ModelZoo = Vec<(&'static str, Box<dyn Regressor>)>;

/// Fitted instances of every `Regressor` the crate ships, plus a shared
/// background — built once (fitting per proptest case would dominate the
/// runtime) and reused by the batched-evaluation equivalence tests below.
fn coalition_fixture() -> &'static (Background, ModelZoo) {
    static FIX: std::sync::OnceLock<(Background, ModelZoo)> = std::sync::OnceLock::new();
    FIX.get_or_init(|| {
        let s = friedman1(150, 5, 0.2, 42).unwrap();
        let bg = Background::from_dataset(&s.data, 6, 1).unwrap();
        let models: Vec<(&'static str, Box<dyn Regressor>)> = vec![
            (
                "tree",
                Box::new(DecisionTree::fit(&s.data, &TreeParams::default(), 0).unwrap()),
            ),
            (
                "forest",
                Box::new(
                    RandomForest::fit(
                        &s.data,
                        &ForestParams {
                            n_trees: 10,
                            ..Default::default()
                        },
                        0,
                        1,
                    )
                    .unwrap(),
                ),
            ),
            (
                "gbdt",
                Box::new(
                    Gbdt::fit(
                        &s.data,
                        &GbdtParams {
                            n_rounds: 10,
                            ..Default::default()
                        },
                        0,
                    )
                    .unwrap(),
                ),
            ),
            (
                "mlp",
                Box::new(
                    Mlp::fit(
                        &s.data,
                        &MlpParams {
                            hidden: vec![8],
                            epochs: 20,
                            ..Default::default()
                        },
                        0,
                    )
                    .unwrap(),
                ),
            ),
            (
                "linear",
                Box::new(LinearRegression::fit(&s.data, 1e-6).unwrap()),
            ),
        ];
        (bg, models)
    })
}

/// Every `Regressor` the crate ships over one 5-feature regression task,
/// plus a GBDT classifier on a 5-feature task, for the `predict_block`
/// contract test.
fn block_fixture() -> &'static (ModelZoo, Gbdt) {
    static FIX: std::sync::OnceLock<(ModelZoo, Gbdt)> = std::sync::OnceLock::new();
    FIX.get_or_init(|| {
        let s = friedman1(150, 5, 0.2, 42).unwrap();
        let forest = RandomForest::fit(
            &s.data,
            &ForestParams {
                n_trees: 10,
                ..Default::default()
            },
            0,
            1,
        )
        .unwrap();
        let packed = SoaForest::from_forest(&forest).unwrap();
        let gbdt = |data: &Dataset| {
            Gbdt::fit(
                data,
                &GbdtParams {
                    n_rounds: 10,
                    ..Default::default()
                },
                0,
            )
            .unwrap()
        };
        let models: ModelZoo = vec![
            (
                "tree",
                Box::new(DecisionTree::fit(&s.data, &TreeParams::default(), 0).unwrap()),
            ),
            ("forest", Box::new(forest)),
            ("gbdt", Box::new(gbdt(&s.data))),
            ("soa-forest", Box::new(packed)),
            (
                "linear",
                Box::new(LinearRegression::fit(&s.data, 1e-6).unwrap()),
            ),
            (
                "mlp",
                Box::new(
                    Mlp::fit(
                        &s.data,
                        &MlpParams {
                            hidden: vec![8],
                            epochs: 5,
                            ..Default::default()
                        },
                        0,
                    )
                    .unwrap(),
                ),
            ),
            (
                "fn-model",
                Box::new(FnModel::new(5, |v: &[f64]| v[0] * v[1] - v[4].sqrt())),
            ),
        ];
        let xor = interaction_xor(150, 3, 42).unwrap();
        (models, gbdt(&xor.data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The blocked coalition evaluator is bit-identical to the scalar
    /// `coalition_value` loop for every model type the crate ships —
    /// the invariant that lets every explainer route through
    /// `predict_block` without changing a single attribution.
    #[test]
    fn batched_coalition_values_match_scalar_for_every_model(
        x in prop::collection::vec(0.0f64..1.0, 5),
        coalition_bits in prop::collection::vec(prop::collection::vec(0u8..2, 5), 1..12),
    ) {
        let coalitions: Vec<Vec<bool>> = coalition_bits
            .iter()
            .map(|row| row.iter().map(|&b| b == 1).collect())
            .collect();
        let (bg, models) = coalition_fixture();
        let mut ws = CoalitionWorkspace::default();
        for (kind, model) in models {
            let bulk = bg.coalition_values(model.as_ref(), &x, &coalitions, &mut ws);
            for (members, v) in coalitions.iter().zip(&bulk) {
                let scalar = bg.coalition_value(model.as_ref(), &x, members);
                prop_assert!(
                    v.to_bits() == scalar.to_bits(),
                    "{kind}: bulk {v} != scalar {scalar} for {members:?}"
                );
            }
        }
    }

    /// `predict_block`, the one batch entry, is bit-identical to the scalar
    /// `predict` loop for every model the crate ships (the trait-override
    /// contract): raw tree, forest and GBDT (both tasks) on both sides of
    /// the pack threshold, the packed engine, linear, MLP, a closure and a
    /// probability surface. Blocks hold `PACK_MIN_ROWS - 1`,
    /// `PACK_MIN_ROWS` and a ragged `2 * PACK_MIN_ROWS + 5` rows, with
    /// `-0.0`, `0.0` and NaN features mixed in.
    #[test]
    fn predict_block_matches_scalar_predict_for_every_model(seed in 0u64..10_000) {
        let (reg, cls) = block_fixture();
        let surface = ProbaSurface(cls);
        let mut models: Vec<(&str, &dyn Regressor)> =
            reg.iter().map(|(k, m)| (*k, m.as_ref())).collect();
        models.push(("gbdt-classification", cls));
        models.push(("proba-surface", &surface));
        let mut rng = SimRng::new(seed);
        for n in [PACK_MIN_ROWS - 1, PACK_MIN_ROWS, 2 * PACK_MIN_ROWS + 5] {
            let flat: Vec<f64> = (0..n * 5)
                .map(|_| match rng.below(16) {
                    0 => -0.0,
                    1 => 0.0,
                    2 => f64::NAN,
                    _ => rng.uniform(0.0, 1.0),
                })
                .collect();
            for (kind, model) in &models {
                let mut block = vec![0.0; n];
                model.predict_block(&flat, 5, &mut block);
                for (row, b) in flat.chunks_exact(5).zip(&block) {
                    let s = model.predict(row);
                    prop_assert!(
                        b.to_bits() == s.to_bits(),
                        "{kind} at {n} rows: block {b} != scalar {s} for {row:?}"
                    );
                }
            }
        }
    }

    /// Whatever the operation mix (inserts, lookups, version bumps,
    /// evictions in a tiny cache), a lookup keyed to the current model
    /// version never observes an entry written under a different version.
    #[test]
    fn lru_cache_never_serves_a_stale_model_version(
        capacity in 1usize..8,
        ops in prop::collection::vec((0u8..3, 0i64..6), 1..80),
    ) {
        use nfv_serve::cache::{CacheKey, ShardedCache};
        use nfv_serve::request::ExplainMethod;
        // Cold tier enabled: evictions demote to quantized entries, and
        // the staleness property must hold across both tiers.
        let cache = ShardedCache::new(capacity, capacity * 4, 2);
        let mut version = 1u64;
        let key_of = |version: u64, cell: i64| CacheKey::build(
            "m", version, ExplainMethod::TreeShap, &[cell as f64], 1.0,
        ).unwrap();
        // The cached value records the version it was computed under.
        let attr_of = |version: u64, cell: i64| std::sync::Arc::new(Attribution {
            names: ["f".to_string()].into(),
            values: vec![cell as f64],
            base_value: 0.0,
            prediction: version as f64,
            method: "test".into(),
        });
        for (op, cell) in ops {
            match op {
                // A re-registration: the world moves to a new version.
                0 => version += 1,
                1 => cache.insert(key_of(version, cell), attr_of(version, cell)),
                _ => {
                    if let Some((hit, fidelity)) = cache.get(&key_of(version, cell)) {
                        // Prediction stays exact f64 in both tiers, so it
                        // is a version check even on quantized hits.
                        prop_assert_eq!(hit.prediction, version as f64,
                            "entry from version {} served at version {}",
                            hit.prediction, version);
                        prop_assert!(
                            (hit.values[0] - cell as f64).abs() <= fidelity.max_abs_err(),
                            "value {} vs {} exceeds the typed bound {}",
                            hit.values[0], cell, fidelity.max_abs_err());
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Serving batches are invisible in the output: whatever the engine's
    /// worker count and however many callers race it (so requests co-queue
    /// and plan into one fused block), every answer is bit for bit the
    /// answer a fresh one-worker engine gives that request alone.
    #[test]
    fn batched_explanations_match_one_at_a_time(
        instances in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 5), 1..9),
        workers in 1usize..5,
        callers in 1usize..5,
    ) {
        use nfv_serve::prelude::*;
        use std::time::Duration;
        let s = friedman1(160, 5, 0.1, 3).unwrap();
        let params = GbdtParams { n_rounds: 12, ..GbdtParams::default() };
        let model = ServeModel::Gbdt(Gbdt::fit(&s.data, &params, 0).unwrap());
        let bg = Background::from_dataset(&s.data, 6, 1).unwrap();
        let methods = [
            ExplainMethod::KernelShap { n_coalitions: 24 },
            ExplainMethod::Lime { n_samples: 5 + 2 },
        ];
        let start = |workers| {
            let engine = Engine::start(ServeConfig { workers, ..ServeConfig::default() });
            engine.registry()
                .register("m", model.clone(), s.data.names.clone(), bg.clone())
                .unwrap();
            engine
        };
        let ask = |engine: &Engine, x: &[f64], method| {
            let resp = engine.explain(ExplainRequest {
                model_id: "m".into(),
                features: x.to_vec(),
                method,
                budget: Duration::from_secs(60),
            }).unwrap();
            assert_eq!(resp.fidelity, Fidelity::Exact);
            resp.attribution
        };
        let bits = |a: &Attribution| -> Vec<u64> {
            a.values.iter().chain([&a.base_value, &a.prediction]).map(|v| v.to_bits()).collect()
        };

        // Caller c asks every method for instances c, c + callers, ...
        let engine = start(workers);
        let answers: Vec<(usize, ExplainMethod, Vec<u64>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..callers).map(|c| {
                let (engine, instances, ask, bits) = (&engine, &instances, &ask, &bits);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for i in (c..instances.len()).step_by(callers) {
                        for method in methods {
                            out.push((i, method, bits(&ask(engine, &instances[i], method))));
                        }
                    }
                    out
                })
            }).collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        engine.shutdown();
        prop_assert_eq!(answers.len(), instances.len() * methods.len());
        for (i, method, got) in answers {
            let alone = start(1);
            let want = bits(&ask(&alone, &instances[i], method));
            alone.shutdown();
            prop_assert_eq!(got, want, "instance {} {:?}: {} workers, {} callers",
                i, method, workers, callers);
        }
    }
}
