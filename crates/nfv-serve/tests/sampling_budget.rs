//! A sampling budget too large to plan answers a typed budget error, and
//! the engine keeps serving. The plans refuse such a budget before they
//! allocate; without that check the first `Vec::with_capacity` asks for
//! terabytes, the allocation fails and the whole process aborts, which no
//! `catch_unwind` can contain. So the requests run in a child process
//! that runs only this test, and the parent checks that it exited cleanly.

use nfv_ml::prelude::LinearRegression;
use nfv_serve::prelude::*;
use nfv_xai::prelude::{Background, XaiError};
use std::time::Duration;

#[test]
fn a_huge_sampling_budget_answers_a_budget_error_and_the_engine_serves_on() {
    const CHILD: &str = "NFV_SERVE_HUGE_BUDGET_CHILD";
    if std::env::var_os(CHILD).is_none() {
        let status = std::process::Command::new(std::env::current_exe().unwrap())
            .args([
                "--exact",
                "a_huge_sampling_budget_answers_a_budget_error_and_the_engine_serves_on",
                "--test-threads=1",
            ])
            .env(CHILD, "1")
            .status()
            .unwrap();
        assert!(status.success(), "the child did not exit cleanly: {status}");
        return;
    }
    let engine = Engine::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let model = ServeModel::Linear(LinearRegression {
        coefficients: vec![1.0, -2.0, 0.5, 3.0, -1.0],
        intercept: 0.25,
    });
    let names: Vec<String> = (0..5).map(|i| format!("x{i}")).collect();
    let rows = (0..8).map(|i| vec![i as f64 * 0.5; 5]).collect();
    let background = Background::from_rows(rows).unwrap();
    engine
        .registry()
        .register("m", model, names, background)
        .unwrap();
    let request = |method| ExplainRequest {
        model_id: "m".into(),
        features: vec![0.3, -1.2, 2.0, 0.7, 1.1],
        method,
        budget: Duration::from_secs(30),
    };
    let huge = [
        ExplainMethod::Lime { n_samples: 1 << 40 },
        ExplainMethod::SamplingShapley {
            n_permutations: 1 << 40,
            antithetic: false,
        },
        ExplainMethod::SamplingShapley {
            n_permutations: 1 << 40,
            antithetic: true,
        },
    ];
    for method in huge {
        let err = engine.explain(request(method)).unwrap_err();
        assert!(
            matches!(err, ServeError::Explain(XaiError::Budget(_))),
            "{method:?}: {err:?}"
        );
    }
    let served = engine
        .explain(request(ExplainMethod::Lime { n_samples: 64 }))
        .unwrap();
    assert_eq!(served.attribution.values.len(), 5);
    engine.shutdown();
}
