//! Experiments F1–F7: the reconstructed evaluation's figures, printed as
//! the data series a plot would be drawn from.

use crate::{print_table, served, time_ms, Fixture, SizedTask};
use nfv_data::prelude::*;
use nfv_ml::prelude::*;
use nfv_serve::prelude::{ExplainMethod, ServeModel};
use nfv_xai::prelude::*;

/// F1 — global feature-importance ranking of the SLA-violation classifier:
/// mean |SHAP| vs permutation importance vs the logistic-coefficient
/// baseline.
pub fn f1(quick: bool) {
    let n = if quick { 800 } else { 5_000 };
    let n_explain = if quick { 60 } else { 400 };
    let fixture = Fixture::new(n, 11);
    let train = &fixture.sla_train;
    let model = Gbdt::fit(train, &GbdtParams::default(), 0).expect("fit");
    println!("F1 — global importance for the SLA-violation classifier\n");

    // Mean |SHAP| over served explanations (TreeSHAP reads no background;
    // registration needs one).
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

    // Permutation importance on the probability surface.
    let pfi = permutation_importance(
        &ProbaSurface(&model),
        &fixture.sla_test,
        &PermutationConfig::default(),
    )
    .expect("pfi");

    // Interpretable baseline: standardized logistic coefficients.
    let mut scaled = train.clone();
    let sc = Scaler::standard(train);
    sc.transform(&mut scaled).expect("scale");
    let logit = LogisticRegression::fit(&scaled, 1e-3, 40).expect("logit");

    let mut order: Vec<usize> = (0..train.n_features()).collect();
    order.sort_by(|&a, &b| shap_global[b].total_cmp(&shap_global[a]));
    let rows: Vec<Vec<String>> = order
        .iter()
        .map(|&i| {
            vec![
                train.names[i].clone(),
                format!("{:.4}", shap_global[i]),
                format!("{:.4}", pfi.importances[i]),
                format!("{:.4}", logit.coefficients[i].abs()),
            ]
        })
        .collect();
    print_table(
        &[
            "feature",
            "mean |SHAP|",
            "perm. importance",
            "|logit coef| (std)",
        ],
        &rows,
    );
    let rho_shap_pfi = nfv_data::stats::spearman(&shap_global, &pfi.importances);
    println!("\nSpearman(mean|SHAP|, PFI) = {rho_shap_pfi:.3}");
}

/// F2 — local case study: one high-risk window explained by TreeSHAP,
/// KernelSHAP and LIME side by side, plus the operator report.
pub fn f2(quick: bool) {
    let n = if quick { 800 } else { 4_000 };
    let fixture = Fixture::new(n, 13);
    let train = &fixture.sla_train;
    let test = &fixture.sla_test;
    let model = Gbdt::fit(train, &GbdtParams::default(), 0).expect("fit");
    let proba: Vec<f64> = test.rows().map(|r| model.predict_proba(r)).collect();
    let idx = (0..test.n_rows())
        .max_by(|&a, &b| proba[a].total_cmp(&proba[b]))
        .expect("nonempty");
    let x = test.row(idx).to_vec();
    println!(
        "F2 — local explanation case study (window #{idx}, risk {:.3})\n",
        proba[idx]
    );

    let bg = Background::from_dataset(train, 40, 1).expect("background");
    let tree = gbdt_shap(&model, &x, &test.names).expect("tree");
    let surface = ProbaSurface(&model);
    let kernel = kernel_shap(
        &surface,
        &x,
        &bg,
        &test.names,
        &KernelShapConfig::for_features(x.len()),
    )
    .expect("kernel");
    let lime_exp = lime(&surface, &x, &bg, &test.names, &LimeConfig::default()).expect("lime");

    let rows: Vec<Vec<String>> = (0..x.len())
        .map(|i| {
            vec![
                test.names[i].clone(),
                format!("{:.4}", x[i]),
                format!("{:+.4}", tree.values[i]),
                format!("{:+.4}", kernel.values[i]),
                format!("{:+.4}", lime_exp.attribution.values[i]),
            ]
        })
        .collect();
    print_table(
        &[
            "feature",
            "value",
            "TreeSHAP (margin)",
            "KernelSHAP (risk)",
            "LIME (risk)",
        ],
        &rows,
    );
    let a = agreement(&tree, &kernel).expect("agree");
    println!(
        "\nTreeSHAP↔KernelSHAP magnitude ρ = {:.3}, top-3 overlap = {:.2}",
        a.spearman_magnitude, a.top3_overlap
    );
    println!(
        "\n{}",
        render_report(&kernel, PredictionKind::SlaViolationRisk, 4).text
    );
}

/// F3 — fidelity: deletion & insertion AUC for SHAP, LIME, PFI-order and
/// random-order explanations.
pub fn f3(quick: bool) {
    let n = if quick { 800 } else { 4_000 };
    let n_inst = if quick { 20 } else { 150 };
    let fixture = Fixture::new(n, 17);
    let train = &fixture.lat_train;
    let model = Gbdt::fit(train, &GbdtParams::default(), 0).expect("fit");
    let bg = Background::from_dataset(train, 40, 2).expect("background");
    println!("F3 — explanation fidelity (deletion ↓ better / insertion ↑ better)\n");

    // Explain the highest-prediction instances.
    let preds: Vec<f64> = train
        .rows()
        .map(|r| Regressor::predict(&model, r))
        .collect();
    let mut idx: Vec<usize> = (0..train.n_rows()).collect();
    idx.sort_by(|&a, &b| preds[b].total_cmp(&preds[a]));
    let instances: Vec<Vec<f64>> = idx[..n_inst]
        .iter()
        .map(|&i| train.row(i).to_vec())
        .collect();

    let serve_model = ServeModel::Gbdt(model.clone());
    let explain = |method| served(&serve_model, &train.names, &bg, method, &instances);
    let shap_attrs = explain(ExplainMethod::TreeShap);
    let lime_attrs = explain(ExplainMethod::Lime { n_samples: 1000 });
    let pfi = permutation_importance(&model, train, &PermutationConfig::default()).expect("pfi");
    let pfi_order = pfi.ranking();

    let d = train.n_features();
    let orders_of = |attrs: &[Attribution]| -> Vec<Vec<usize>> {
        attrs.iter().map(|a| a.order_by_magnitude()).collect()
    };
    let shap_orders = orders_of(&shap_attrs);
    let lime_orders = orders_of(&lime_attrs);
    let pfi_orders: Vec<Vec<usize>> = (0..n_inst).map(|_| pfi_order.clone()).collect();
    let random_orders: Vec<Vec<usize>> = (0..n_inst)
        .map(|i| {
            let mut o: Vec<usize> = (0..d).collect();
            o.rotate_left(i % d);
            o
        })
        .collect();

    let mut rows = Vec::new();
    for (name, orders) in [
        ("TreeSHAP", &shap_orders),
        ("LIME", &lime_orders),
        ("PFI (global order)", &pfi_orders),
        ("random order", &random_orders),
    ] {
        let s = fidelity_summary(&model, &instances, orders, &bg).expect("fidelity");
        rows.push(vec![
            name.to_string(),
            format!("{:.4}", s.deletion_auc),
            format!("{:.4}", s.insertion_auc),
        ]);
    }
    print_table(&["ordering", "deletion AUC ↓", "insertion AUC ↑"], &rows);
    println!("\n{n_inst} highest-latency windows; features removed to the background mean.");
}

/// F4 — convergence of the sampling estimators to exact Shapley
/// (error vs model-evaluation budget, with and without antithetics).
pub fn f4(quick: bool) {
    let d = 12;
    let task = SizedTask::new(d, 19);
    let budgets: &[usize] = if quick {
        &[64, 512]
    } else {
        &[32, 64, 128, 256, 512, 1024, 2048, 4096]
    };
    let n_inst = if quick { 2 } else { 6 };
    println!("F4 — convergence to exact Shapley (d = {d}, relative MAE vs budget)\n");
    let instances: Vec<Vec<f64>> = (0..n_inst)
        .map(|i| task.data.row(i * 31).to_vec())
        .collect();
    let exact: Vec<Attribution> = instances
        .iter()
        .map(|x| exact_shapley(&task.forest, x, &task.background, &task.names).expect("exact"))
        .collect();
    let scale: f64 = exact
        .iter()
        .flat_map(|a| a.values.iter().map(|v| v.abs()))
        .fold(0.0, f64::max);

    let mut rows = Vec::new();
    for &budget in budgets {
        let perms_plain = (budget / (d + 1)).max(1);
        let perms_anti = (budget / (2 * (d + 1))).max(1);
        let mut plain = 0.0;
        let mut anti = 0.0;
        let mut kern = 0.0;
        for (x, ex) in instances.iter().zip(&exact) {
            let s1 = sampling_shapley(
                &task.forest,
                x,
                &task.background,
                &task.names,
                &SamplingConfig {
                    n_permutations: perms_plain,
                    antithetic: false,
                    seed: 3,
                },
            )
            .expect("plain");
            plain += attribution_mae(&s1, ex).expect("mae");
            let s2 = sampling_shapley(
                &task.forest,
                x,
                &task.background,
                &task.names,
                &SamplingConfig {
                    n_permutations: perms_anti,
                    antithetic: true,
                    seed: 3,
                },
            )
            .expect("anti");
            anti += attribution_mae(&s2, ex).expect("mae");
            let k = kernel_shap(
                &task.forest,
                x,
                &task.background,
                &task.names,
                &KernelShapConfig {
                    n_coalitions: budget,
                    ridge: 1e-6,
                    seed: 3,
                },
            )
            .expect("kernel");
            kern += attribution_mae(&k, ex).expect("mae");
        }
        let n = instances.len() as f64;
        rows.push(vec![
            format!("{budget}"),
            format!("{:.4}", plain / n / scale),
            format!("{:.4}", anti / n / scale),
            format!("{:.4}", kern / n / scale),
        ]);
    }
    print_table(
        &[
            "budget (evals)",
            "sampling",
            "sampling+antithetic",
            "KernelSHAP",
        ],
        &rows,
    );
    println!("\nExpected shape: error falls ~1/√budget; KernelSHAP lowest at every budget.");
}

/// F5 — cross-method agreement matrix and per-method stability.
pub fn f5(quick: bool) {
    let n = if quick { 600 } else { 2_500 };
    let n_inst = if quick { 10 } else { 60 };
    let fixture = Fixture::new(n, 23);
    let train = &fixture.sla_train;
    let model = Gbdt::fit(train, &GbdtParams::default(), 0).expect("fit");
    let surface = ProbaSurface(&model);
    let bg = Background::from_dataset(train, 25, 3).expect("background");
    println!("F5 — cross-method agreement and stability\n");

    // Every set is served. TreeSHAP explains the GBDT's margin (log-odds);
    // the model-agnostic methods explain its probability (`predict`, the
    // surface `ProbaSurface` gives the stability runs below).
    let instances: Vec<Vec<f64>> = (0..n_inst).map(|i| train.row(i * 7).to_vec()).collect();
    let serve_model = ServeModel::Gbdt(model.clone());
    let explain = |method| served(&serve_model, &train.names, &bg, method, &instances);
    let tree_attrs = explain(ExplainMethod::TreeShap);
    let kernel_attrs = explain(ExplainMethod::KernelShap {
        n_coalitions: 2 * train.n_features() + 512,
    });
    let sampling_attrs = explain(ExplainMethod::SamplingShapley {
        n_permutations: 200,
        antithetic: true,
    });
    let lime_attrs = explain(ExplainMethod::Lime { n_samples: 1000 });

    let methods: Vec<(&str, &Vec<Attribution>)> = vec![
        ("TreeSHAP", &tree_attrs),
        ("KernelSHAP", &kernel_attrs),
        ("Sampling", &sampling_attrs),
        ("LIME", &lime_attrs),
    ];
    let mut rows = Vec::new();
    for (i, (name_a, a)) in methods.iter().enumerate() {
        let mut cells = vec![name_a.to_string()];
        for (j, (_, b)) in methods.iter().enumerate() {
            if j < i {
                cells.push(String::from("·"));
            } else {
                let g = mean_agreement(a, b).expect("agreement");
                cells.push(format!("{:.2}", g.spearman_magnitude));
            }
        }
        rows.push(cells);
    }
    println!("Mean Spearman ρ of attribution magnitudes:");
    print_table(&["", "TreeSHAP", "KernelSHAP", "Sampling", "LIME"], &rows);

    // Stability: empirical Lipschitz of each method around one instance,
    // perturbing each feature by ±5% of its background std.
    let x = instances[0].clone();
    let scales: Vec<f64> = (0..train.n_features())
        .map(|j| {
            let col = train.column(j);
            nfv_data::stats::std_dev(&col).max(1e-9)
        })
        .collect();
    let probe_cfg = StabilityConfig {
        n_probes: if quick { 5 } else { 15 },
        radius: 0.05,
        scales,
        seed: 1,
    };
    let mut rows = Vec::new();
    let mut tree_fn = |p: &[f64]| gbdt_shap(&model, p, &train.names).map(|a| a.values);
    let s_tree = stability(&x, &mut tree_fn, &probe_cfg.clone()).expect("stab");
    rows.push(vec!["TreeSHAP".into(), format!("{:.3}", s_tree.lipschitz)]);
    let mut kern_fn = |p: &[f64]| {
        kernel_shap(
            &surface,
            p,
            &bg,
            &train.names,
            &KernelShapConfig::for_features(x.len()),
        )
        .map(|a| a.values)
    };
    let s_kern = stability(&x, &mut kern_fn, &probe_cfg).expect("stab");
    rows.push(vec![
        "KernelSHAP".into(),
        format!("{:.3}", s_kern.lipschitz),
    ]);
    let mut lime_fn = |p: &[f64]| {
        lime(&surface, p, &bg, &train.names, &LimeConfig::default()).map(|e| e.attribution.values)
    };
    let s_lime = stability(&x, &mut lime_fn, &probe_cfg).expect("stab");
    rows.push(vec!["LIME".into(), format!("{:.3}", s_lime.lipschitz)]);
    println!("\nEmpirical local Lipschitz (lower = more stable):");
    print_table(&["method", "max ‖Δφ‖/‖Δx‖"], &rows);
}

/// F6 — scalability: explanation latency vs chain length (feature count)
/// and vs ensemble size.
pub fn f6(quick: bool) {
    use nfv_sim::prelude::*;
    println!("F6 — scalability\n");
    // (a) vs chain length: build sweeps over growing chains.
    let lengths: &[usize] = if quick {
        &[2, 4]
    } else {
        &[2, 3, 4, 5, 6, 7, 8]
    };
    let kinds = [
        VnfKind::Firewall,
        VnfKind::Ids,
        VnfKind::LoadBalancer,
        VnfKind::Nat,
        VnfKind::Dpi,
        VnfKind::Router,
        VnfKind::VpnGateway,
        VnfKind::Cache,
    ];
    let mut rows = Vec::new();
    for &len in lengths {
        let chain = ChainSpec::of_kinds("sweep", &kinds[..len]);
        let sweep = SweepConfig {
            chain,
            ..SweepConfig::secure_web(29)
        };
        let n = if quick { 400 } else { 1_500 };
        let data = generate_fluid(&sweep, n, Target::LatencyP95LogMs).expect("data");
        let d = data.n_features();
        let model = Gbdt::fit(
            &data,
            &GbdtParams {
                n_rounds: 60,
                ..GbdtParams::default()
            },
            0,
        )
        .expect("fit");
        let bg = Background::from_dataset(&data, 12, 1).expect("bg");
        let x = data.row(3).to_vec();
        let reps = if quick { 2 } else { 5 };
        let tree_ms = time_ms(reps * 10, || gbdt_shap(&model, &x, &data.names).expect("t"));
        let kernel_ms = time_ms(reps, || {
            kernel_shap(
                &model,
                &x,
                &bg,
                &data.names,
                &KernelShapConfig::for_features(d),
            )
            .expect("k")
        });
        let lime_ms = time_ms(reps, || {
            lime(&model, &x, &bg, &data.names, &LimeConfig::default()).expect("l")
        });
        rows.push(vec![
            format!("{len}"),
            format!("{d}"),
            format!("{tree_ms:.3}"),
            format!("{kernel_ms:.1}"),
            format!("{lime_ms:.1}"),
        ]);
    }
    println!("(a) latency (ms/instance) vs chain length:");
    print_table(
        &["chain VNFs", "features", "TreeSHAP", "KernelSHAP", "LIME"],
        &rows,
    );

    // (b) TreeSHAP vs ensemble size.
    let sizes: &[usize] = if quick {
        &[10, 50]
    } else {
        &[10, 25, 50, 100, 200]
    };
    let s = friedman1(if quick { 300 } else { 1_000 }, 10, 0.3, 31).expect("friedman");
    let mut rows = Vec::new();
    for &n_trees in sizes {
        let forest = RandomForest::fit(
            &s.data,
            &ForestParams {
                n_trees,
                ..ForestParams::default()
            },
            0,
            4,
        )
        .expect("fit");
        let x = s.data.row(0).to_vec();
        let reps = if quick { 5 } else { 20 };
        let ms = time_ms(reps, || forest_shap(&forest, &x, &s.data.names).expect("f"));
        rows.push(vec![format!("{n_trees}"), format!("{ms:.3}")]);
    }
    println!("\n(b) TreeSHAP latency (ms/instance) vs forest size:");
    print_table(&["trees", "TreeSHAP ms"], &rows);
}

/// F7 — the Clever Hans unmasking: model quality and SHAP share of the
/// spurious feature as the leak strength varies.
pub fn f7(quick: bool) {
    let n = if quick { 800 } else { 4_000 };
    let n_explain = if quick { 40 } else { 200 };
    println!("F7 — Clever Hans: leaky monitoring counter vs SHAP audit\n");
    let strengths: &[f64] = if quick {
        &[0.0, 0.95]
    } else {
        &[0.0, 0.5, 0.8, 0.95]
    };
    let deployed = clever_hans_nfv(n, 0.0, 97).expect("deploy data");
    let mut rows = Vec::new();
    for &leak in strengths {
        let train = clever_hans_nfv(n, leak, 96).expect("train data");
        let model = Gbdt::fit(&train.data, &GbdtParams::default(), 0).expect("fit");
        let val_proba: Vec<f64> = train.data.rows().map(|r| model.predict_proba(r)).collect();
        let dep_proba: Vec<f64> = deployed
            .data
            .rows()
            .map(|r| model.predict_proba(r))
            .collect();
        let val_auc = metrics::roc_auc(&train.data.y, &val_proba).expect("auc");
        let dep_auc = metrics::roc_auc(&deployed.data.y, &dep_proba).expect("auc");
        let instances: Vec<Vec<f64>> = (0..n_explain).map(|i| train.data.row(i).to_vec()).collect();
        let bg = Background::from_dataset(&train.data, 25, 1).expect("background");
        let attrs = served(
            &ServeModel::Gbdt(model.clone()),
            &train.data.names,
            &bg,
            ExplainMethod::TreeShap,
            &instances,
        );
        let global = mean_absolute_attribution(&attrs);
        let leak_idx = train.data.feature_index("mon_debug_counter").expect("leak");
        let share = global[leak_idx] / global.iter().sum::<f64>().max(1e-12);
        rows.push(vec![
            format!("{leak:.2}"),
            format!("{val_auc:.3}"),
            format!("{dep_auc:.3}"),
            format!("{:.1}%", 100.0 * share),
        ]);
    }
    print_table(
        &[
            "leak strength",
            "train AUC",
            "deploy AUC",
            "SHAP share of counter",
        ],
        &rows,
    );
    println!("\nExpected shape: train AUC rises with leak strength while deploy AUC");
    println!("falls — and the SHAP share of the counter rises in lockstep, flagging");
    println!("the Clever Hans before deployment.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figures_smoke_quick() {
        f4(true);
        f7(true);
    }
}
