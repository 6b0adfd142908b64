//! Integration: the extension methods (counterfactuals, grouped Shapley,
//! interactions, SAGE, auto-scaler) exercised on the full NFV pipeline.

use nfv_data::prelude::*;
use nfv_ml::prelude::*;
use nfv_sim::prelude::*;
use nfv_xai::prelude::*;

fn risk_model() -> (Dataset, Dataset, Gbdt) {
    let sweep = SweepConfig::secure_web(51);
    let data = generate_fluid(&sweep, 2_000, Target::SlaViolation).unwrap();
    let (train, test) = data.split(0.25, 1).unwrap();
    let model = Gbdt::fit(
        &train,
        &GbdtParams {
            n_rounds: 80,
            ..Default::default()
        },
        0,
    )
    .unwrap();
    (train, test, model)
}

#[test]
fn counterfactual_clears_a_real_alert() {
    let (train, test, model) = risk_model();
    let surface = ProbaSurface(&model);
    let bg = Background::from_dataset(&train, 40, 1).unwrap();
    let proba: Vec<f64> = test.rows().map(|r| model.predict_proba(r)).collect();
    let idx = (0..test.n_rows())
        .max_by(|&a, &b| proba[a].total_cmp(&proba[b]))
        .unwrap();
    assert!(proba[idx] > 0.8, "need a real alert: {}", proba[idx]);
    let actionable: Vec<bool> = (0..test.n_features())
        .map(|j| j >= nfv_data::features::GLOBAL_FEATURES)
        .collect();
    let cf = counterfactual(
        &surface,
        test.row(idx),
        &bg,
        &CounterfactualConfig {
            threshold: 0.2,
            direction: CrossingDirection::Below,
            actionable: actionable.clone(),
            n_restarts: 8,
            max_sweeps: 40,
            seed: 2,
        },
    )
    .unwrap();
    match cf {
        Some(cf) => {
            assert!(cf.prediction <= 0.2 + 1e-9);
            // Non-actionable (traffic) features are untouched.
            for j in 0..nfv_data::features::GLOBAL_FEATURES {
                assert_eq!(cf.deltas[j], 0.0, "traffic feature {j} moved");
            }
            assert!(cf.n_changed >= 1);
        }
        None => {
            // Legitimate: the forecasting model may pin the risk on the
            // offered load itself, which resources cannot change. Widening
            // actionability to everything must then find a fix (shed load).
            let cf_all = counterfactual(
                &surface,
                test.row(idx),
                &bg,
                &CounterfactualConfig {
                    threshold: 0.2,
                    direction: CrossingDirection::Below,
                    actionable: Vec::new(),
                    n_restarts: 8,
                    max_sweeps: 40,
                    seed: 2,
                },
            )
            .unwrap()
            .expect("with every feature actionable a healthy region exists");
            assert!(cf_all.prediction <= 0.2 + 1e-9);
        }
    }
}

#[test]
fn grouped_shapley_blames_a_stage_consistently_with_treeshap() {
    let (train, test, model) = risk_model();
    let surface = ProbaSurface(&model);
    let bg = Background::from_dataset(&train, 25, 2).unwrap();
    let groups = FeatureGroups::per_stage(&test.names).unwrap();
    let proba: Vec<f64> = test.rows().map(|r| model.predict_proba(r)).collect();
    let idx = (0..test.n_rows())
        .max_by(|&a, &b| proba[a].total_cmp(&proba[b]))
        .unwrap();
    let x = test.row(idx).to_vec();
    let grouped = grouped_shapley(&surface, &x, &bg, &groups).unwrap();
    assert!(grouped.efficiency_gap().abs() < 1e-9);
    // The dominant stage by grouped Shapley equals the dominant stage by
    // summed TreeSHAP magnitudes.
    let tree = gbdt_shap(&model, &x, &test.names).unwrap();
    let mut summed = vec![0.0; groups.len()];
    for (j, v) in tree.values.iter().enumerate() {
        summed[groups.assignment[j]] += v.abs();
    }
    let top_grouped = (0..groups.len())
        .max_by(|&a, &b| grouped.values[a].abs().total_cmp(&grouped.values[b].abs()))
        .unwrap();
    let top_summed = (0..groups.len())
        .max_by(|&a, &b| summed[a].total_cmp(&summed[b]))
        .unwrap();
    assert_eq!(
        top_grouped, top_summed,
        "grouped {:?} vs summed {:?}",
        grouped.values, summed
    );
}

#[test]
fn sage_and_mean_shap_rank_the_same_top_feature() {
    let (train, test, model) = risk_model();
    let surface = ProbaSurface(&model);
    let bg = Background::from_dataset(&train, 20, 3).unwrap();
    let imp = sage(
        &surface,
        &test,
        &bg,
        &SageConfig {
            n_permutations: 24,
            rows_per_permutation: 16,
            seed: 1,
        },
    )
    .unwrap();
    let instances: Vec<Vec<f64>> = (0..80).map(|i| test.row(i).to_vec()).collect();
    let attrs = instances
        .iter()
        .map(|x| gbdt_shap(&model, x, &test.names))
        .collect::<Result<Vec<_>, _>>()
        .unwrap();
    let shap_global = mean_absolute_attribution(&attrs);
    let top_shap = (0..shap_global.len())
        .max_by(|&a, &b| shap_global[a].total_cmp(&shap_global[b]))
        .unwrap();
    assert_eq!(imp.ranking()[0], top_shap, "sage {:?}", imp.values);
    assert!(imp.full_loss < imp.base_loss, "the model must add value");
}

#[test]
fn predictive_scaler_competes_with_reactive_on_cost() {
    let cfg = ScalingSimConfig {
        chain: ChainSpec::of_kinds(
            "secure-web",
            &[VnfKind::Firewall, VnfKind::Ids, VnfKind::LoadBalancer],
        ),
        workload: Workload::bursty(220_000.0),
        epoch_s: 0.5,
        n_epochs: 120,
        p95_bound_s: 5e-3,
        max_drop_rate: 1e-3,
        violation_penalty: 20.0,
        seed: 4,
    };
    let mut reactive = ThresholdPolicy::default();
    let r = run_scaling(&cfg, &mut reactive).unwrap();
    let mut predictive = PredictivePolicy {
        scorer: |obs: &EpochObservation| obs.utilization.clone(),
        step: 0.5,
        min_share: 0.25,
        max_share: 8.0,
    };
    let p = run_scaling(&cfg, &mut predictive).unwrap();
    // Both policies must do real work under bursts, and neither should be
    // catastrophically worse — the experiment (F9) reports the exact gap.
    assert!(r.violation_rate < 0.5, "reactive {}", r.violation_rate);
    assert!(p.violation_rate < 0.5, "predictive {}", p.violation_rate);
    assert!(p.cost < r.cost * 2.0 && r.cost < p.cost * 2.0);
}

#[test]
fn interaction_values_on_a_chain_submodel_are_consistent() {
    let (train, test, model) = risk_model();
    let bg = Background::from_dataset(&train, 15, 5).unwrap();
    // Wrap the model over 4 chosen features, holding the rest at a fixed
    // instance (the headroom-example pattern).
    let x = test.row(0).to_vec();
    let keep = [0usize, 6, 7, 8]; // offered + ids cpu/queue/drop
    let sub_x: Vec<f64> = keep.iter().map(|&i| x[i]).collect();
    let sub_names: Vec<String> = keep.iter().map(|&i| test.names[i].clone()).collect();
    let sub_bg = Background::from_rows(
        bg.rows()
            .iter()
            .map(|r| keep.iter().map(|&i| r[i]).collect())
            .collect(),
    )
    .unwrap();
    let sub_model = {
        let model = model.clone();
        let x_full = x.clone();
        FnModel::new(4, move |sub: &[f64]| {
            let mut full = x_full.clone();
            for (k, &i) in keep.iter().enumerate() {
                full[i] = sub[k];
            }
            model.predict_proba(&full)
        })
    };
    let m = interaction_values(&sub_model, &sub_x, &sub_bg, &sub_names).unwrap();
    // Consistency: row sums equal exact Shapley on the same sub-game.
    let direct = exact_shapley(&sub_model, &sub_x, &sub_bg, &sub_names).unwrap();
    for (a, b) in m.shapley_values().iter().zip(&direct.values) {
        assert!((a - b).abs() < 1e-9);
    }
}
