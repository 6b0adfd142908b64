//! Extension experiments T4, F8, F9, F10, S1: SAGE global importance, the
//! counterfactual operations study, stage-grouped attributions driving
//! the auto-scaler, ROAR, and the serving frontier.

use crate::{print_table, served, Fixture, SizedTask};
use nfv_data::dataset::Dataset;
use nfv_ml::prelude::*;
use nfv_serve::prelude::{ExplainMethod, ServeModel};
use nfv_sim::prelude::*;
use nfv_xai::prelude::*;

/// T4 — three global-importance views side by side: SAGE (loss-based),
/// mean |SHAP| (prediction-based), and permutation importance, on the
/// SLA-violation model.
pub fn t4(quick: bool) {
    let n = if quick { 800 } else { 4_000 };
    let fixture = Fixture::new(n, 31);
    let train = &fixture.sla_train;
    let test = &fixture.sla_test;
    let model = Gbdt::fit(train, &GbdtParams::default(), 0).expect("fit");
    let surface = ProbaSurface(&model);
    let bg = Background::from_dataset(train, 25, 1).expect("bg");
    println!("T4 — global importance: SAGE vs mean |SHAP| vs permutation\n");

    let sage_cfg = SageConfig {
        n_permutations: if quick { 12 } else { 48 },
        rows_per_permutation: if quick { 8 } else { 24 },
        seed: 2,
    };
    let sage_imp = sage(&surface, test, &bg, &sage_cfg).expect("sage");

    let n_explain = if quick { 40 } else { 200 };
    let instances: Vec<Vec<f64>> = (0..n_explain.min(test.n_rows()))
        .map(|i| test.row(i).to_vec())
        .collect();
    let attrs = served(
        &ServeModel::Gbdt(model.clone()),
        &test.names,
        &bg,
        ExplainMethod::TreeShap,
        &instances,
    );
    let shap_global = mean_absolute_attribution(&attrs);

    let pfi = permutation_importance(&surface, test, &PermutationConfig::default()).expect("pfi");

    let mut order: Vec<usize> = (0..test.n_features()).collect();
    order.sort_by(|&a, &b| sage_imp.values[b].total_cmp(&sage_imp.values[a]));
    let rows: Vec<Vec<String>> = order
        .iter()
        .map(|&i| {
            vec![
                test.names[i].clone(),
                format!("{:+.4}", sage_imp.values[i]),
                format!("{:.4}", shap_global[i]),
                format!("{:.4}", pfi.importances[i]),
            ]
        })
        .collect();
    print_table(
        &["feature", "SAGE (Δloss)", "mean |SHAP|", "perm. importance"],
        &rows,
    );
    println!(
        "\nSAGE conservation: Σ = {:.4} vs base−full loss = {:.4}",
        sage_imp.values.iter().sum::<f64>(),
        sage_imp.base_loss - sage_imp.full_loss
    );
    println!(
        "rank agreement: SAGE↔SHAP ρ = {:.3}, SAGE↔PFI ρ = {:.3}",
        nfv_data::stats::spearman(&sage_imp.values, &shap_global),
        nfv_data::stats::spearman(&sage_imp.values, &pfi.importances)
    );
}

/// F8 — counterfactual operations study: success rate, cost, and sparsity
/// of actionable fixes for predicted SLA violations, and how they shrink
/// when more telemetry becomes actionable.
pub fn f8(quick: bool) {
    let n = if quick { 800 } else { 4_000 };
    let n_alerts = if quick { 8 } else { 40 };
    let fixture = Fixture::new(n, 37);
    let train = &fixture.sla_train;
    let test = &fixture.sla_test;
    let model = Gbdt::fit(train, &GbdtParams::default(), 0).expect("fit");
    let surface = ProbaSurface(&model);
    let bg = Background::from_dataset(train, 40, 1).expect("bg");
    println!("F8 — counterfactual fixes for predicted violations\n");

    // The alerts: highest-risk test windows.
    let proba: Vec<f64> = test.rows().map(|r| model.predict_proba(r)).collect();
    let mut idx: Vec<usize> = (0..test.n_rows()).collect();
    idx.sort_by(|&a, &b| proba[b].total_cmp(&proba[a]));
    let alerts: Vec<Vec<f64>> = idx[..n_alerts]
        .iter()
        .map(|&i| test.row(i).to_vec())
        .collect();

    let masks: Vec<(&str, Vec<bool>)> = vec![
        (
            "CPU only",
            test.names.iter().map(|nm| nm.ends_with("_cpu")).collect(),
        ),
        (
            "CPU + interference",
            test.names
                .iter()
                .map(|nm| nm.ends_with("_cpu") || nm.ends_with("_interf"))
                .collect(),
        ),
        (
            "all per-VNF state",
            (0..test.n_features())
                .map(|j| j >= nfv_data::features::GLOBAL_FEATURES)
                .collect(),
        ),
    ];
    let mut rows = Vec::new();
    for (name, mask) in &masks {
        let mut solved = 0usize;
        let mut cost_sum = 0.0;
        let mut changed_sum = 0.0;
        for x in &alerts {
            let cf = counterfactual(
                &surface,
                x,
                &bg,
                &CounterfactualConfig {
                    threshold: 0.2,
                    direction: CrossingDirection::Below,
                    actionable: mask.clone(),
                    n_restarts: if quick { 4 } else { 8 },
                    max_sweeps: 40,
                    seed: 5,
                },
            )
            .expect("search");
            if let Some(cf) = cf {
                solved += 1;
                cost_sum += cf.cost;
                changed_sum += cf.n_changed as f64;
            }
        }
        let rate = solved as f64 / alerts.len() as f64;
        rows.push(vec![
            name.to_string(),
            format!("{:.0}%", 100.0 * rate),
            if solved > 0 {
                format!("{:.2}", cost_sum / solved as f64)
            } else {
                "—".into()
            },
            if solved > 0 {
                format!("{:.1}", changed_sum / solved as f64)
            } else {
                "—".into()
            },
        ]);
    }
    print_table(
        &[
            "actionable set",
            "alerts cleared",
            "mean cost (std units)",
            "mean features changed",
        ],
        &rows,
    );
    println!("\nTarget: risk ≤ 0.2. Expected shape: wider actionable sets clear more");
    println!("alerts at lower cost.");
}

/// F9 — (a) stage-grouped attributions vs summed per-feature SHAP;
/// (b) explanation-driven predictive scaling vs the reactive baseline.
pub fn f9(quick: bool) {
    let n = if quick { 800 } else { 3_000 };
    let fixture = Fixture::new(n, 41);
    let train = &fixture.sla_train;
    let test = &fixture.sla_test;
    let model = Gbdt::fit(train, &GbdtParams::default(), 0).expect("fit");
    let surface = ProbaSurface(&model);
    let bg = Background::from_dataset(train, 30, 1).expect("bg");
    println!("F9 — stage-level explanations and the auto-scaler\n");

    // (a) Grouped Shapley vs summed TreeSHAP per stage, averaged over
    // high-risk windows.
    let groups = FeatureGroups::per_stage(&test.names).expect("groups");
    let proba: Vec<f64> = test.rows().map(|r| model.predict_proba(r)).collect();
    let mut idx: Vec<usize> = (0..test.n_rows()).collect();
    idx.sort_by(|&a, &b| proba[b].total_cmp(&proba[a]));
    let n_inst = if quick { 5 } else { 25 };
    let mut grouped_sum = vec![0.0; groups.len()];
    let mut summed_sum = vec![0.0; groups.len()];
    for &i in &idx[..n_inst] {
        let x = test.row(i).to_vec();
        let g = grouped_shapley(&surface, &x, &bg, &groups).expect("grouped");
        let t = gbdt_shap(&model, &x, &test.names).expect("treeshap");
        for (k, v) in g.values.iter().enumerate() {
            grouped_sum[k] += v / n_inst as f64;
        }
        for (j, v) in t.values.iter().enumerate() {
            summed_sum[groups.assignment[j]] += v / n_inst as f64;
        }
    }
    let rows: Vec<Vec<String>> = (0..groups.len())
        .map(|k| {
            vec![
                groups.names[k].clone(),
                format!("{:+.4}", grouped_sum[k]),
                format!("{:+.4}", summed_sum[k]),
            ]
        })
        .collect();
    println!("(a) mean stage attribution over the {n_inst} riskiest windows:");
    print_table(
        &["stage", "grouped Shapley (risk)", "Σ TreeSHAP (margin)"],
        &rows,
    );
    println!("\n(the two columns live on different scales — risk vs log-odds —");
    println!("but must agree on *which stage dominates*)\n");

    // (b) Auto-scaling: reactive threshold vs utilization-driven predictive
    // policy (the scorer stands in for the model+SHAP pipeline, which in
    // production ranks stages exactly like this utilization signal).
    let scaling_cfg = ScalingSimConfig {
        chain: ChainSpec::of_kinds(
            "secure-web",
            &[VnfKind::Firewall, VnfKind::Ids, VnfKind::LoadBalancer],
        ),
        workload: Workload::bursty(220_000.0),
        epoch_s: 0.5,
        n_epochs: if quick { 40 } else { 200 },
        p95_bound_s: 5e-3,
        max_drop_rate: 1e-3,
        violation_penalty: 20.0,
        seed: 9,
    };
    let mut reactive = ThresholdPolicy::default();
    let r1 = run_scaling(&scaling_cfg, &mut reactive).expect("reactive");
    let mut predictive = PredictivePolicy {
        scorer: |obs: &EpochObservation| obs.utilization.clone(),
        step: 0.5,
        min_share: 0.25,
        max_share: 8.0,
    };
    let r2 = run_scaling(&scaling_cfg, &mut predictive).expect("predictive");
    let mut frozen_rows = Vec::new();
    for (name, run) in [
        ("reactive threshold", &r1),
        ("predictive (stage-ranked)", &r2),
    ] {
        frozen_rows.push(vec![
            name.to_string(),
            format!("{:.1}%", 100.0 * run.violation_rate),
            format!("{:.2}", run.mean_reserved_cores),
            format!("{:.2}", run.cost),
        ]);
    }
    println!("(b) auto-scaling under bursty load:");
    print_table(
        &["policy", "violation epochs", "mean reserved cores", "cost"],
        &frozen_rows,
    );
}

/// F10 — ROAR (remove-and-retrain): does destroying the SHAP-top features
/// hurt a *retrained* model more than destroying random ones?
pub fn f10(quick: bool) {
    let n = if quick { 800 } else { 4_000 };
    let fixture = Fixture::new(n, 47);
    let train = &fixture.sla_train;
    let test = &fixture.sla_test;
    println!("F10 — ROAR: retrained AUC after destroying top-ranked features\n");

    // Rankings under test: mean |SHAP| of a GBDT, permutation importance,
    // and a fixed arbitrary order as the control.
    let model = Gbdt::fit(train, &GbdtParams::default(), 0).expect("fit");
    let n_explain = if quick { 40 } else { 200 };
    let instances: Vec<Vec<f64>> = (0..n_explain.min(train.n_rows()))
        .map(|i| train.row(i).to_vec())
        .collect();
    let bg = Background::from_dataset(train, 25, 1).expect("background");
    let attrs = served(
        &ServeModel::Gbdt(model.clone()),
        &train.names,
        &bg,
        ExplainMethod::TreeShap,
        &instances,
    );
    let shap_global = mean_absolute_attribution(&attrs);
    let mut shap_rank: Vec<usize> = (0..train.n_features()).collect();
    shap_rank.sort_by(|&a, &b| shap_global[b].total_cmp(&shap_global[a]));
    let pfi = permutation_importance(&ProbaSurface(&model), test, &PermutationConfig::default())
        .expect("pfi");
    let pfi_rank = pfi.ranking();
    let d = train.n_features();
    let arbitrary: Vec<usize> = (0..d).map(|i| (i * 5 + 3) % d).collect();

    let fit_score = |tr: &Dataset, te: &Dataset| -> Result<f64, XaiError> {
        let m = Gbdt::fit(
            tr,
            &GbdtParams {
                n_rounds: if quick { 30 } else { 80 },
                ..GbdtParams::default()
            },
            0,
        )
        .map_err(|e| XaiError::Numeric(e.to_string()))?;
        let proba: Vec<f64> = te.rows().map(|r| m.predict_proba(r)).collect();
        metrics::roc_auc(&te.y, &proba).map_err(|e| XaiError::Numeric(e.to_string()))
    };
    let fractions = if quick {
        vec![0.0, 0.5]
    } else {
        vec![0.0, 0.15, 0.3, 0.5, 0.75]
    };
    let mut rows = Vec::new();
    for (name, rank) in [
        ("mean |SHAP|", &shap_rank),
        ("perm. importance", &pfi_rank),
        ("arbitrary order", &arbitrary),
    ] {
        let curve = roar(train, test, rank, &fractions, &fit_score).expect("roar");
        let mut cells = vec![name.to_string()];
        cells.extend(curve.scores.iter().map(|s| format!("{s:.3}")));
        cells.push(format!("{:.3}", curve.auc()));
        rows.push(cells);
    }
    let mut header: Vec<String> = vec!["ranking".into()];
    header.extend(
        fractions
            .iter()
            .map(|f| format!("{:.0}% removed", f * 100.0)),
    );
    header.push("AUC ↓".into());
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    print_table(&header_refs, &rows);
    println!("\nLower curve/AUC = the ranking found the information the task needs.");
}

/// Requests each shard completed, in id order: `a / b / …`.
fn served_per_shard(stats: &nfv_serve::prelude::ClusterStats) -> String {
    let served = stats.per_shard.iter().map(|(_, s)| match s {
        Some(s) => s.completed.to_string(),
        None => "-".into(),
    });
    served.collect::<Vec<_>>().join(" / ")
}

/// S1 — the serving frontier: workers × cache size × arrival rate through
/// the `nfv-serve` engine, reporting throughput, rejection share, cache
/// hit rate, and tail latency per configuration.
///
/// Open-loop-ish drive: 8 client threads submit KernelSHAP requests over a
/// fixed working set of distinct instances on a shared arrival schedule;
/// when the engine backs up, clients fall behind schedule rather than
/// queueing unboundedly (blocking `explain`), so the overloaded points
/// show admission-control rejections instead of infinite queues — which
/// is exactly the engine's contract (backpressure, not buffer bloat).
///
/// With `net` set (`repro -- serve --net`), §S4 repeats the cluster sweep
/// over real loopback TCP through `nfv-net` shard servers, pricing the
/// wire protocol against the in-process router on the identical trace.
pub fn serve(quick: bool, max_shards: usize, net: bool) {
    use nfv_serve::prelude::*;
    use std::time::{Duration, Instant};

    let task = SizedTask::new(14, 9);
    println!("S1 — serving frontier: workers × cache × arrival rate\n");

    let n_requests: usize = if quick { 120 } else { 600 };
    let distinct: usize = 48; // working set of distinct instances
                              // Tight enough that a full backlog (8 blocked clients × ~0.3 ms
                              // KernelSHAP service) is infeasible on few workers: the overloaded
                              // corner must show admission rejections, not just saturation.
    let budget = Duration::from_millis(2);
    let clients: usize = 8;
    let workers_sweep: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4] };
    let cache_sweep: &[usize] = &[16, 1024];
    let rates: &[f64] = if quick {
        &[800.0, 3_200.0]
    } else {
        &[400.0, 1_600.0, 6_400.0]
    };

    let mut rows = Vec::new();
    for &workers in workers_sweep {
        for &cache_capacity in cache_sweep {
            for &rate in rates {
                let engine = ServeEngine::start(ServeConfig {
                    workers,
                    queue_capacity: 256,
                    max_batch: 8,
                    cache_capacity,
                    cache_shards: 8,
                    quantization_grid: 1e-6,
                    seed: 7,
                    ..ServeConfig::default()
                });
                engine
                    .registry()
                    .register(
                        "forest",
                        ServeModel::Forest(task.forest.clone()),
                        task.names.clone(),
                        task.background.clone(),
                    )
                    .expect("register");
                // Warm-up outside the working set and the timed window:
                // the first uncached request triggers one-time engine
                // calibration whose inflated service sample would seed the
                // admission EWMA; with a tight budget that poisoned
                // estimate rejects everything and, starved of admitted
                // samples, never decays. A few generous-budget requests
                // settle the estimate first (a real deployment's canary
                // traffic does the same).
                for i in 0..8 {
                    let _ = engine.explain(ExplainRequest {
                        model_id: "forest".into(),
                        features: task.data.row(distinct + i).to_vec(),
                        method: ExplainMethod::KernelShap { n_coalitions: 64 },
                        budget: Duration::from_secs(1),
                    });
                }
                let inter = Duration::from_secs_f64(1.0 / rate);
                let start = Instant::now();
                let served = std::sync::atomic::AtomicU64::new(0);
                std::thread::scope(|s| {
                    for c in 0..clients {
                        let engine = &engine;
                        let task = &task;
                        let served = &served;
                        s.spawn(move || {
                            let mut k = c;
                            while k < n_requests {
                                // Hold to the shared schedule while we can.
                                let due = start + inter * k as u32;
                                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                                    std::thread::sleep(wait);
                                }
                                let row = k % distinct;
                                let r = ExplainRequest {
                                    model_id: "forest".into(),
                                    features: task.data.row(row).to_vec(),
                                    method: ExplainMethod::KernelShap { n_coalitions: 64 },
                                    budget,
                                };
                                if engine.explain(r).is_ok() {
                                    served.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                }
                                k += clients;
                            }
                        });
                    }
                });
                let elapsed = start.elapsed().as_secs_f64();
                let stats = engine.stats();
                engine.shutdown();
                let done = served.load(std::sync::atomic::Ordering::Relaxed);
                let rejected = n_requests as u64 - done;
                rows.push(vec![
                    workers.to_string(),
                    cache_capacity.to_string(),
                    format!("{rate:.0}"),
                    format!("{:.0}", done as f64 / elapsed),
                    format!("{:.1}", 100.0 * rejected as f64 / n_requests as f64),
                    format!(
                        "{:.1}",
                        100.0 * stats.degraded_served as f64 / n_requests as f64
                    ),
                    format!("{:.1}", 100.0 * stats.cache_hit_rate),
                    format!("{:.0}", stats.total_p50_us),
                    format!("{:.0}", stats.total_p99_us),
                ]);
            }
        }
    }
    print_table(
        &[
            "workers",
            "cache",
            "req/s in",
            "req/s out",
            "rej %",
            "degr %",
            "hit %",
            "req p50 µs",
            "req p99 µs",
        ],
        &rows,
    );
    println!(
        "\nFrontier reading: under capacity, rejections stay ~0 and p99 tracks the\n\
         explainer; past capacity, admission sheds load — but queue-full pressure\n\
         on sampling methods now degrades to coarse anytime answers (degr %)\n\
         before rejecting outright, and a full-budget worker job upgrades those\n\
         cache entries in place. A cache smaller than the working set ({distinct}\n\
         instances) forces recomputation (low hit %), dragging the frontier left.\n\
         req p50/p99 time the requests a worker answered; a cache hit records no\n\
         latency in the engine's histograms."
    );

    // S2 — the fused frontier: the default engine (coalition fusion
    // scheduler + single-flight dedup) driven by the telemetry-burst trace
    // (8 clients concurrently replaying the *same* 16 uncached KernelSHAP
    // requests — one anomaly, many dashboards). EXPERIMENTS §S2 holds the
    // figures of the unfused engine this was once compared with.
    println!("\nS2 — coalition fusion on the shared telemetry burst\n");
    let rounds: usize = if quick { 3 } else { 12 };
    let engine = ServeEngine::start(ServeConfig {
        workers: 2,
        queue_capacity: 512,
        max_batch: 16,
        cache_capacity: 8192,
        cache_shards: 8,
        quantization_grid: 1e-6,
        seed: 7,
        ..ServeConfig::default()
    });
    engine
        .registry()
        .register(
            "forest",
            ServeModel::Forest(task.forest.clone()),
            task.names.clone(),
            task.background.clone(),
        )
        .expect("register");
    let start = Instant::now();
    for round in 0..rounds {
        std::thread::scope(|s| {
            for c in 0..clients {
                let engine = &engine;
                let task = &task;
                s.spawn(move || {
                    for i in 0..16 {
                        // Two lockstep cohorts at different trace
                        // offsets: in-cohort duplicates exercise
                        // single-flight, cross-cohort leaders fuse.
                        let mut features = task.data.row((i + 8 * (c / 4)) % 16).to_vec();
                        // Fresh grid cells every round: always uncached.
                        features[0] += (round + 1) as f64 * 1e-3;
                        let _ = engine.explain(ExplainRequest {
                            model_id: "forest".into(),
                            features,
                            method: ExplainMethod::KernelShap { n_coalitions: 64 },
                            budget: Duration::from_secs(5),
                        });
                    }
                });
            }
        });
    }
    let elapsed = start.elapsed().as_secs_f64();
    let stats = engine.stats();
    engine.shutdown();
    print_table(
        &[
            "req/s out",
            "evaluations",
            "fused groups",
            "fill ratio",
            "sf hits",
            "req p99 µs",
        ],
        &[vec![
            format!("{:.0}", stats.completed as f64 / elapsed),
            stats.cache_misses.to_string(),
            stats.fused_groups.to_string(),
            format!("{:.2}", stats.fused_fill_ratio),
            stats.single_flight_hits.to_string(),
            format!("{:.0}", stats.total_p99_us),
        ]],
    );
    println!(
        "\nFused reading: single-flight collapses the 8-way duplicate burst to one\n\
         evaluation per distinct request, and fusion stacks those leaders'\n\
         coalition matrices into shared SoA blocks — fewer, larger `predict_block`\n\
         calls for bit-identical answers."
    );

    // S3 — shared-nothing cluster scaling: the same uncached mixed-method
    // trace against 1 … `max_shards` hash-placed shards, one worker
    // per shard. Attributions are bit-identical at every shard count
    // (content-derived seeds); only where the work runs changes.
    println!("\nS3 — shared-nothing cluster scaling ({clients} clients, uncached mixed trace)\n");
    let mut sweep: Vec<usize> = if quick {
        vec![1, max_shards.max(1)]
    } else {
        vec![1, 2, max_shards.max(1)]
    };
    sweep.sort_unstable();
    sweep.dedup();
    let epochs: usize = if quick { 1 } else { 4 };
    let mut rows = Vec::new();
    let mut one_shard_rate = f64::NAN;
    for &shards in &sweep {
        let cluster = ServeCluster::start(ClusterConfig {
            shards,
            shard: ServeConfig {
                workers: 1,
                queue_capacity: 512,
                max_batch: 16,
                cache_capacity: 8192,
                cache_shards: 8,
                quantization_grid: 1e-6,
                seed: 7,
                ..ServeConfig::default()
            },
        });
        cluster
            .register(
                "forest",
                ServeModel::Forest(task.forest.clone()),
                task.names.clone(),
                task.background.clone(),
            )
            .expect("register");
        let start = Instant::now();
        for epoch in 0..epochs {
            std::thread::scope(|s| {
                for c in 0..clients {
                    let cluster = &cluster;
                    let task = &task;
                    s.spawn(move || {
                        for i in 0..16usize {
                            let n = c * 16 + i;
                            let mut features = task.data.row(n % 32).to_vec();
                            // A fresh grid cell per (request, epoch):
                            // every request computes, none is cached.
                            features[0] += (1 + n + epoch * 1024) as f64 * 1e-3;
                            let _ = cluster.explain(&ExplainRequest {
                                model_id: "forest".into(),
                                features,
                                method: match n % 4 {
                                    0 => ExplainMethod::KernelShap { n_coalitions: 64 },
                                    1 => ExplainMethod::SamplingShapley {
                                        n_permutations: 4,
                                        antithetic: true,
                                    },
                                    2 => ExplainMethod::Permutation,
                                    _ => ExplainMethod::GroupedShapley,
                                },
                                budget: Duration::from_secs(5),
                            });
                        }
                    });
                }
            });
        }
        let elapsed = start.elapsed().as_secs_f64();
        let stats = cluster.stats();
        cluster.shutdown();
        let rate = stats.cluster.completed as f64 / elapsed;
        if shards == 1 {
            one_shard_rate = rate;
        }
        rows.push(vec![
            shards.to_string(),
            format!("{rate:.0}"),
            format!("{:.2}", rate / one_shard_rate),
            stats.spills.to_string(),
            format!("{:.0}", stats.cluster.total_p50_us),
            format!("{:.0}", stats.cluster.total_p99_us),
            served_per_shard(&stats),
        ]);
    }
    print_table(
        &[
            "shards",
            "req/s out",
            "speedup",
            "spills",
            "req p50 µs",
            "req p99 µs",
            "served per shard",
        ],
        &rows,
    );
    println!(
        "\nCluster reading: shards share nothing at runtime, so throughput should\n\
         track shard count until the host runs out of cores (on a saturated or\n\
         single-core host the sweep flattens — the router adds only a hash and an\n\
         index). Spills count queue-full retries absorbed by a neighbour shard."
    );

    // S6 — the two-tier cache at a fixed byte budget: an exact-only cache
    // (cold tier disabled) vs a small hot tier plus a large i16-quantized
    // cold tier spending the same bytes, replaying a zipf key stream whose
    // working set overflows the exact-only capacity. Per-entry byte costs
    // are probed on this task's real shapes, not estimated.
    println!("\nS6 — quantized cold tier: entries and hit rate at a fixed byte budget\n");
    {
        let exact_cap: usize = if quick { 64 } else { 128 };
        let working_set: usize = if quick { 512 } else { 1024 };
        let window: usize = if quick { 2048 } else { 4096 };
        let base = ServeConfig {
            workers: 2,
            queue_capacity: 512,
            cache_shards: 1,
            quantization_grid: 1e-6,
            seed: 7,
            ..ServeConfig::default()
        };
        let start_engine = |cache_capacity: usize, cold_capacity: usize| {
            let engine = ServeEngine::start(ServeConfig {
                cache_capacity,
                cold_capacity,
                ..base
            });
            engine
                .registry()
                .register(
                    "forest",
                    ServeModel::Forest(task.forest.clone()),
                    task.names.clone(),
                    task.background.clone(),
                )
                .expect("register");
            engine
        };
        let keyed = |n: usize| {
            let mut features = task.data.row(3).to_vec();
            features[0] += (n + 1) as f64 * 1e-3;
            ExplainRequest {
                model_id: "forest".into(),
                features,
                method: ExplainMethod::TreeShap,
                budget: Duration::from_secs(5),
            }
        };
        // Probe per-entry costs.
        let probe = start_engine(2, 64);
        for n in 0..6 {
            probe.explain(keyed(n)).expect("probe");
        }
        let u = probe.cache_usage();
        let hot_per = u.hot_bytes / u.hot_entries.max(1);
        let cold_per = u.cold_bytes / u.cold_entries.max(1);
        probe.shutdown();
        let budget_bytes = exact_cap * hot_per;
        let hot_small = exact_cap / 8;
        let cold_cap = (budget_bytes - hot_small * hot_per) / cold_per;

        // Deterministic zipf-ish stream (log-uniform ranks over the set).
        let mut state = 99u64;
        let trace: Vec<usize> = (0..window)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
                (((working_set as f64).powf(unit) - 1.0) as usize).min(working_set - 1)
            })
            .collect();

        let mut rows = Vec::new();
        for (label, hot, cold) in [
            ("exact-only", exact_cap, 0usize),
            ("two-tier", hot_small, cold_cap),
        ] {
            let engine = start_engine(hot, cold);
            for n in 0..working_set {
                engine.explain(keyed(n)).expect("warm");
            }
            let before = engine.stats();
            for &n in &trace {
                engine.explain(keyed(n)).expect("replay");
            }
            let after = engine.stats();
            let usage = engine.cache_usage();
            let hits = after.cache_hits - before.cache_hits;
            rows.push(vec![
                label.to_string(),
                usage.bytes().to_string(),
                usage.entries().to_string(),
                format!("{:.1}", 100.0 * hits as f64 / window as f64),
                format!(
                    "{:.1}",
                    100.0 * (after.quantized_hits - before.quantized_hits) as f64 / window as f64
                ),
            ]);
            engine.shutdown();
        }
        print_table(
            &["cache", "bytes", "entries", "hit %", "quantized %"],
            &rows,
        );
        println!(
            "\nCold-tier reading: at the same byte budget the i16-quantized cold tier\n\
             (~{:.0}% of a hot entry's bytes) holds several times the entries, and on a\n\
             zipf stream the extra tail coverage converts directly into hit rate.\n\
             Quantized hits carry a typed max-abs error bound ≤ quantization scale/2.",
            100.0 * cold_per as f64 / hot_per as f64
        );
    }

    if !net {
        println!("\nS4 — wire serving sweep skipped (pass --net to run it)");
        return;
    }

    // S4 — the identical mixed trace through `nfv-net`: shard servers on
    // loopback TCP behind the one router, next to an
    // in-process cluster at the same shard count. The delta prices the
    // wire protocol — framing, FNV checksum, rid demux, one socket hop —
    // per request. 32 client threads keep the shards saturated so the
    // replay client is never the bottleneck. Attributions stay
    // bit-identical to the in-process rows (content-derived seeds; f64s
    // cross the wire as IEEE-754 bit patterns).
    use nfv_net::prelude::*;
    println!("\nS4 — wire serving: nfv-net loopback TCP vs in-process cluster\n");
    let net_clients: usize = 32;
    let total: usize = 128;
    let shard_cfg = ServeConfig {
        workers: 1,
        queue_capacity: 512,
        max_batch: 16,
        cache_capacity: 8192,
        cache_shards: 8,
        quantization_grid: 1e-6,
        seed: 7,
        ..ServeConfig::default()
    };
    let drive_mixed =
        |explain: &(dyn Fn(ExplainRequest) -> Result<ExplainResponse, ServeError> + Sync)| -> f64 {
            let per_client = total / net_clients;
            let start = Instant::now();
            for epoch in 0..epochs {
                std::thread::scope(|s| {
                    for c in 0..net_clients {
                        let task = &task;
                        s.spawn(move || {
                            for i in 0..per_client {
                                let n = c * per_client + i;
                                let mut features = task.data.row(n % 32).to_vec();
                                features[0] += (1 + n + epoch * 1024) as f64 * 1e-3;
                                let _ = explain(ExplainRequest {
                                    model_id: "forest".into(),
                                    features,
                                    method: match n % 4 {
                                        0 => ExplainMethod::KernelShap { n_coalitions: 64 },
                                        1 => ExplainMethod::SamplingShapley {
                                            n_permutations: 4,
                                            antithetic: true,
                                        },
                                        2 => ExplainMethod::Permutation,
                                        _ => ExplainMethod::GroupedShapley,
                                    },
                                    budget: Duration::from_secs(5),
                                });
                            }
                        });
                    }
                });
            }
            start.elapsed().as_secs_f64()
        };

    let mut rows = Vec::new();
    for &shards in &sweep {
        // In-process reference at the same shard count.
        let cluster = ServeCluster::start(ClusterConfig {
            shards,
            shard: shard_cfg,
        });
        cluster
            .register(
                "forest",
                ServeModel::Forest(task.forest.clone()),
                task.names.clone(),
                task.background.clone(),
            )
            .expect("register");
        let local_elapsed = drive_mixed(&|r| cluster.explain(&r));
        let local_rate = (epochs * total) as f64 / local_elapsed;
        cluster.shutdown();

        // Wire arm: real shard servers on loopback, one per shard.
        let servers: Vec<ShardServer> = (0..shards)
            .map(|_| {
                ShardServer::start(ShardConfig {
                    serve: shard_cfg,
                    ..ShardConfig::default()
                })
                .expect("start shard server")
            })
            .collect();
        let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
        // Generous rpc timeout: on an oversubscribed single-core host the
        // shard's polling threads can be starved behind the 32-thread
        // client pool for seconds at a time.
        let wire = NetClusterConfig {
            rpc_timeout: Duration::from_secs(120),
        }
        .connect(&addrs)
        .expect("connect");
        wire.register(
            "forest",
            ServeModel::Forest(task.forest.clone()),
            task.names.clone(),
            task.background.clone(),
        )
        .expect("wire register");
        let wire_elapsed = drive_mixed(&|r| {
            wire.explain(&r).map_err(|e| match e {
                NetError::Serve(s) => s,
                other => ServeError::Internal(other.to_string()),
            })
        });
        let wire_rate = (epochs * total) as f64 / wire_elapsed;
        let stats = wire.stats();
        wire.drain_all().expect("drain");
        for s in servers {
            s.join();
        }

        rows.push(vec![
            shards.to_string(),
            format!("{local_rate:.0}"),
            format!("{wire_rate:.0}"),
            format!("{:.1}", 100.0 * (1.0 - wire_rate / local_rate)),
            stats.spills.to_string(),
            stats.faults.to_string(),
        ]);
    }
    print_table(
        &[
            "shards",
            "in-proc req/s",
            "wire req/s",
            "wire cost %",
            "spills",
            "faults",
        ],
        &rows,
    );
    println!(
        "\nWire reading: the binary protocol costs a fixed per-request overhead\n\
         (encode + checksum + loopback hop + rid demux), so its share shrinks as\n\
         explainer work grows and as shards absorb requests in parallel. Zero\n\
         net errors means no frame was ever rejected; spills would mark\n\
         queue-full retries routed to the next shard."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extensions_smoke_quick() {
        t4(true);
        f9(true);
        f10(true);
    }

    #[test]
    fn serve_frontier_smoke_quick() {
        serve(true, 2, true);
    }
}
