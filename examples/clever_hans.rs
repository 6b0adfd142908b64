//! "Clever Hans" in NFV (experiment F7): a violation classifier that
//! silently latched onto a spurious monitoring counter, unmasked by SHAP.
//!
//! The training data contains a debug counter that the monitoring agent
//! happens to increment under stress — perfectly correlated with the label
//! in training, causally inert in production. The model looks excellent in
//! validation and collapses at deployment. A single global SHAP summary
//! would have exposed the problem before rollout.
//!
//! Run with: `cargo run --release --example clever_hans`

use nfv_data::prelude::*;
use nfv_ml::prelude::*;
use nfv_xai::prelude::*;

fn main() {
    // Training distribution: the leak is present (95% label copy rate).
    let leaky = clever_hans_nfv(6_000, 0.95, 21).expect("training data");
    // Deployment distribution: same physics, leak gone.
    let deployed = clever_hans_nfv(3_000, 0.0, 22).expect("deployment data");

    let (train, validation) = leaky.data.split(0.25, 1).expect("split");
    let model = Gbdt::fit(&train, &GbdtParams::default(), 0).expect("fit");

    let val_proba: Vec<f64> = validation.rows().map(|r| model.predict_proba(r)).collect();
    let dep_proba: Vec<f64> = deployed
        .data
        .rows()
        .map(|r| model.predict_proba(r))
        .collect();
    let val_auc = metrics::roc_auc(&validation.y, &val_proba).unwrap();
    let dep_auc = metrics::roc_auc(&deployed.data.y, &dep_proba).unwrap();
    println!("validation AUC (leak present): {val_auc:.3}   ← looks deployable");
    println!("deployment AUC (leak absent):  {dep_auc:.3}   ← it was not");

    // The audit the paper argues for: global mean-|SHAP| before rollout.
    let sample: Vec<Vec<f64>> = (0..200).map(|i| validation.row(i).to_vec()).collect();
    let attrs = sample
        .iter()
        .map(|x| gbdt_shap(&model, x, &validation.names))
        .collect::<Result<Vec<_>, _>>()
        .expect("explanation");
    let global = mean_absolute_attribution(&attrs);

    println!("\nglobal mean |SHAP| (training distribution):");
    let mut order: Vec<usize> = (0..global.len()).collect();
    order.sort_by(|&a, &b| global[b].total_cmp(&global[a]));
    let total: f64 = global.iter().sum();
    for &i in &order {
        let bar = "#".repeat((60.0 * global[i] / global[order[0]]) as usize);
        println!(
            "  {:<20} {:>6.1}%  {bar}",
            validation.names[i],
            100.0 * global[i] / total
        );
    }
    let leak_idx = validation
        .names
        .iter()
        .position(|n| n == "mon_debug_counter")
        .expect("leak feature present");
    if order[0] == leak_idx {
        println!(
            "\nverdict: the model's top driver is a monitoring debug counter, not a\n\
             resource signal — a Clever Hans predictor. Block the rollout and\n\
             retrain without the leaking feature."
        );
    } else {
        println!("\nverdict: no dominant spurious feature detected.");
    }

    // Retraining without the leak restores honest behaviour.
    let keep: Vec<usize> = (0..train.n_features()).filter(|&j| j != leak_idx).collect();
    let clean_train = select_features(&train, &keep);
    let clean_deploy = select_features(&deployed.data, &keep);
    let clean_model = Gbdt::fit(&clean_train, &GbdtParams::default(), 0).expect("refit");
    let clean_proba: Vec<f64> = clean_deploy
        .rows()
        .map(|r| clean_model.predict_proba(r))
        .collect();
    let clean_auc = metrics::roc_auc(&clean_deploy.y, &clean_proba).unwrap();
    println!("\nretrained without the counter → deployment AUC {clean_auc:.3}");
}

/// Projects a dataset onto the given feature columns.
fn select_features(data: &Dataset, keep: &[usize]) -> Dataset {
    let names: Vec<String> = keep.iter().map(|&j| data.names[j].clone()).collect();
    let mut x = Vec::with_capacity(data.n_rows() * keep.len());
    for row in data.rows() {
        for &j in keep {
            x.push(row[j]);
        }
    }
    Dataset::new(names, x, data.y.clone(), data.task).expect("projection is valid")
}
