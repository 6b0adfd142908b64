//! Serve console: an operator console session against the online
//! explanation-serving engine — register a model, explain a live alert,
//! watch the cache absorb the repeat traffic, and see backpressure and
//! admission control reject bad or hopeless requests with a reason.
//!
//! Run with: `cargo run --release --example serve_console`

use nfv_data::prelude::*;
use nfv_ml::prelude::*;
use nfv_serve::prelude::*;
use nfv_xai::prelude::Background;
use std::time::Duration;

fn main() {
    // 1. Telemetry + model, exactly as in `quickstart`.
    let sweep = SweepConfig::secure_web(42);
    let data = generate_fluid(&sweep, 2_000, Target::SlaViolation).expect("dataset");
    let (train, test) = data.split(0.25, 1).expect("split");
    let model = Gbdt::fit(&train, &GbdtParams::default(), 0).expect("fit");
    let background = Background::from_dataset(&train, 32, 0).expect("background");

    // 2. Stand up the serving engine and publish the model.
    let engine = ServeEngine::start(ServeConfig::default());
    let version = engine
        .registry()
        .register(
            "sla-gbdt",
            ServeModel::Gbdt(model),
            train.names.clone(),
            background,
        )
        .expect("register");
    println!("registered `sla-gbdt` at version {version}");

    // 3. An alert fires: explain the hottest window, live.
    let alert = |row: usize| ExplainRequest {
        model_id: "sla-gbdt".into(),
        features: test.row(row).to_vec(),
        method: ExplainMethod::TreeShap,
        budget: Duration::from_millis(250),
    };
    let first = engine.explain(alert(0)).expect("explain");
    let mut ranked: Vec<_> = first
        .attribution
        .names
        .iter()
        .zip(&first.attribution.values)
        .collect();
    ranked.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()));
    println!(
        "alert explained in {:?} (cache_hit={}): top driver {} ({:+.4})",
        first.service_time, first.cache_hit, ranked[0].0, ranked[0].1
    );

    // 4. The NOC reloads the dashboard: same window, served from cache.
    let again = engine.explain(alert(0)).expect("explain");
    println!(
        "repeat served in {:?} (cache_hit={}), identical answer: {}",
        again.service_time,
        again.cache_hit,
        again.attribution == first.attribution
    );

    // 5. Requests that cannot be served are refused with a reason, not a
    //    hang: a model nobody registered, a malformed feature vector, and
    //    a deadline no explainer could meet.
    let bad = [
        ExplainRequest {
            model_id: "typo-model".into(),
            ..alert(0)
        },
        ExplainRequest {
            features: vec![1.0; 3],
            ..alert(0)
        },
        ExplainRequest {
            budget: Duration::from_nanos(1),
            features: test.row(1).to_vec(),
            ..alert(0)
        },
    ];
    for req in bad {
        match engine.explain(req) {
            Ok(r) => println!("unexpectedly served: cache_hit={}", r.cache_hit),
            Err(e) => println!("refused -> {e}"),
        }
    }

    // 6. Retrain and re-publish: the version bump makes every old cache
    //    entry unreachable, so the next request recomputes.
    let retrained = Gbdt::fit(&train, &GbdtParams::default(), 7).expect("refit");
    let v2 = engine
        .registry()
        .register(
            "sla-gbdt",
            ServeModel::Gbdt(retrained),
            train.names.clone(),
            Background::from_dataset(&train, 32, 0).expect("background"),
        )
        .expect("re-register");
    let fresh = engine.explain(alert(0)).expect("explain");
    println!(
        "re-registered at version {v2}; next explain: cache_hit={}, model_version={}",
        fresh.cache_hit, fresh.model_version
    );

    // 7. Shift-change report.
    let stats = engine.stats();
    println!(
        "\nshift report: {} submitted, {} completed, {} rejected, hit rate {:.2}, request p99 {}us",
        stats.submitted,
        stats.completed,
        stats.rejected_unknown_model
            + stats.rejected_unknown_method
            + stats.rejected_invalid
            + stats.rejected_deadline_unmeetable
            + stats.rejected_queue_full,
        stats.cache_hit_rate,
        stats.total_p99_us
    );
    engine.shutdown();
}
