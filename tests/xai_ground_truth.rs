//! Integration: every explanation method scored against analytic ground
//! truth — the linear-Gaussian task (closed-form Shapley values), known
//! relevant/irrelevant features, and the Clever Hans unmasking.

use nfv_data::prelude::*;
use nfv_ml::prelude::*;
use nfv_xai::prelude::*;

fn names_of(data: &Dataset) -> Vec<String> {
    data.names.clone()
}

/// All local methods must recover w_i(x_i − μ_i) on a linear model over
/// independent features.
#[test]
fn all_methods_agree_with_closed_form_on_linear_ground_truth() {
    let s = linear_gaussian(1_000, 4, 2, 0.0, 5).unwrap();
    let bg = Background::from_dataset(&s.data, 60, 1).unwrap();
    let coefs = s.coefficients.clone();
    let model = FnModel::new(6, move |x: &[f64]| {
        x.iter().zip(&coefs).map(|(a, b)| a * b).sum()
    });
    let x = s.data.row(17).to_vec();
    let truth: Vec<f64> = s
        .coefficients
        .iter()
        .zip(&x)
        .zip(&bg.means)
        .map(|((w, xi), mu)| w * (xi - mu))
        .collect();
    let names = names_of(&s.data);

    let exact = exact_shapley(&model, &x, &bg, &names).unwrap();
    let kernel = kernel_shap(&model, &x, &bg, &names, &KernelShapConfig::for_features(6)).unwrap();
    let sampled = sampling_shapley(
        &model,
        &x,
        &bg,
        &names,
        &SamplingConfig {
            n_permutations: 4_000,
            antithetic: true,
            seed: 2,
        },
    )
    .unwrap();
    let limed = lime(&model, &x, &bg, &names, &LimeConfig::default())
        .unwrap()
        .attribution;

    for (i, &t) in truth.iter().enumerate() {
        assert!((exact.values[i] - t).abs() < 1e-9, "exact[{i}]");
        assert!((kernel.values[i] - t).abs() < 1e-6, "kernel[{i}]");
        assert!(
            (sampled.values[i] - t).abs() < 0.15,
            "sampled[{i}]: {} vs {}",
            sampled.values[i],
            t
        );
        assert!(
            (limed.values[i] - t).abs() < 0.15,
            "lime[{i}]: {} vs {}",
            limed.values[i],
            t
        );
    }
}

/// TreeSHAP's global ranking on Friedman #1 must put the five causal
/// features above every noise feature.
#[test]
fn tree_shap_global_ranking_matches_known_relevance() {
    let s = friedman1(2_000, 10, 0.3, 6).unwrap();
    let g = Gbdt::fit(&s.data, &GbdtParams::default(), 0).unwrap();
    let names = names_of(&s.data);
    let instances: Vec<Vec<f64>> = (0..300).map(|i| s.data.row(i).to_vec()).collect();
    let attrs = instances
        .iter()
        .map(|x| gbdt_shap(&g, x, &names))
        .collect::<Result<Vec<_>, _>>()
        .unwrap();
    let global = mean_absolute_attribution(&attrs);
    let min_relevant = s
        .relevant
        .iter()
        .map(|&i| global[i])
        .fold(f64::INFINITY, f64::min);
    let max_noise = (5..10).map(|i| global[i]).fold(0.0f64, f64::max);
    assert!(
        min_relevant > 2.0 * max_noise,
        "relevant floor {min_relevant} vs noise ceiling {max_noise}"
    );
}

/// Shapley splits pure-interaction credit between the interacting pair;
/// marginal methods (PDP total variation) see nothing.
#[test]
fn interaction_task_separates_shapley_from_marginal_views() {
    let s = interaction_xor(2_000, 2, 7).unwrap();
    let g = Gbdt::fit(&s.data, &GbdtParams::default(), 0).unwrap();
    let names = names_of(&s.data);
    let instances: Vec<Vec<f64>> = (0..200).map(|i| s.data.row(i).to_vec()).collect();
    let attrs = instances
        .iter()
        .map(|x| gbdt_shap(&g, x, &names))
        .collect::<Result<Vec<_>, _>>()
        .unwrap();
    let global = mean_absolute_attribution(&attrs);
    assert!(global[0] > 4.0 * global[2], "{global:?}");
    assert!(global[1] > 4.0 * global[2], "{global:?}");

    // PDP on either interacting feature is nearly flat (no marginal
    // effect), even though the feature is crucial — the documented failure
    // mode of marginal views that Shapley avoids.
    let surface = ProbaSurface(&g);
    let pd0 = partial_dependence(&surface, &s.data, 0, 11, false).unwrap();
    let pd2 = partial_dependence(&surface, &s.data, 2, 11, false).unwrap();
    assert!(
        pd0.total_variation() < 0.2,
        "marginal view is blind to the interaction: {}",
        pd0.total_variation()
    );
    let _ = pd2;
}

/// The fidelity battery must rank a real explanation above a random one.
#[test]
fn deletion_fidelity_prefers_shap_over_random_ordering() {
    let s = friedman1(1_200, 8, 0.2, 8).unwrap();
    let g = Gbdt::fit(&s.data, &GbdtParams::default(), 0).unwrap();
    let names = names_of(&s.data);
    let bg = Background::from_dataset(&s.data, 40, 2).unwrap();

    // Explain 40 high-prediction instances (deletion is most informative
    // above the base value).
    let mut idx: Vec<usize> = (0..s.data.n_rows()).collect();
    let preds: Vec<f64> = s.data.rows().map(|r| Regressor::predict(&g, r)).collect();
    idx.sort_by(|&a, &b| preds[b].total_cmp(&preds[a]));
    let instances: Vec<Vec<f64>> = idx[..40].iter().map(|&i| s.data.row(i).to_vec()).collect();
    let attrs = instances
        .iter()
        .map(|x| gbdt_shap(&g, x, &names))
        .collect::<Result<Vec<_>, _>>()
        .unwrap();

    let shap_orders: Vec<Vec<usize>> = attrs.iter().map(|a| a.order_by_magnitude()).collect();
    let random_orders: Vec<Vec<usize>> = (0..instances.len())
        .map(|i| {
            let mut o: Vec<usize> = (0..8).collect();
            o.rotate_left(i % 8); // deterministic arbitrary orders
            o
        })
        .collect();
    let shap = fidelity_summary(&g, &instances, &shap_orders, &bg).unwrap();
    let random = fidelity_summary(&g, &instances, &random_orders, &bg).unwrap();
    assert!(
        shap.deletion_auc < random.deletion_auc,
        "shap deletion {} vs random {}",
        shap.deletion_auc,
        random.deletion_auc
    );
    assert!(
        shap.insertion_auc > random.insertion_auc,
        "shap insertion {} vs random {}",
        shap.insertion_auc,
        random.insertion_auc
    );
}

/// The Clever Hans leak must dominate SHAP rankings of a leaky model and
/// vanish from an honest one.
#[test]
fn clever_hans_is_unmasked_by_global_shap() {
    let leaky = clever_hans_nfv(3_000, 0.95, 9).unwrap();
    let model = Gbdt::fit(
        &leaky.data,
        &GbdtParams {
            n_rounds: 80,
            ..Default::default()
        },
        0,
    )
    .unwrap();
    let names = names_of(&leaky.data);
    let instances: Vec<Vec<f64>> = (0..200).map(|i| leaky.data.row(i).to_vec()).collect();
    let attrs = instances
        .iter()
        .map(|x| gbdt_shap(&model, x, &names))
        .collect::<Result<Vec<_>, _>>()
        .unwrap();
    let global = mean_absolute_attribution(&attrs);
    let leak = leaky.data.feature_index("mon_debug_counter").unwrap();
    let top = (0..global.len())
        .max_by(|&a, &b| global[a].total_cmp(&global[b]))
        .unwrap();
    assert_eq!(top, leak, "the leak must top the ranking: {global:?}");

    // Permutation importance agrees.
    let pi = permutation_importance(
        &ProbaSurface(&model),
        &leaky.data,
        &PermutationConfig::default(),
    )
    .unwrap();
    assert_eq!(pi.ranking()[0], leak);
}
