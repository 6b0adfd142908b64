//! The anytime paths under plug-in panics. Its own test binary: it shadows
//! `kernel-shap` in the process-global `MethodRegistry` (only built-in
//! sampling methods coarsen) with a wrapper that panics on chosen budgets,
//! and no other test may see that wrapper.
//!
//! Every engine here has one worker and one queue slot. A plug request
//! holds the worker and a TreeSHAP request fills the slot, so every further
//! miss finds the queue full and degrades. Every call runs on its own
//! thread behind a bounded wait: an engine that hangs fails the test
//! instead, and a caller thread that unwinds is seen as one.

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use nfv_data::prelude::*;
use nfv_ml::prelude::*;
use nfv_serve::prelude::*;
use nfv_xai::prelude::*;
use nfv_xai::XaiError;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

/// The coarse budget of a 512-coalition request (÷ 8): it always panics.
const PANICKING_COARSE_BUDGET: u64 = 512 / DEFAULT_ANYTIME_DIVISOR;
/// A full budget that panics while [`FULL_BUDGET_PANICS`] is set. Its
/// coarse budget (÷ 8 = 32) computes.
const FLAGGED_FULL_BUDGET: u64 = 256;
static FULL_BUDGET_PANICS: AtomicBool = AtomicBool::new(false);
/// Full-budget panics so far.
static FULL_BUDGET_PANICKED: AtomicU64 = AtomicU64::new(0);

/// The built-in KernelSHAP, panicking on the budgets above. Its own
/// arithmetic is untouched: `direct()` is the default plan → evaluate →
/// finish, through this `plan`.
struct Faulty {
    inner: Box<dyn Explainer>,
    budget: u64,
}

impl Explainer for Faulty {
    fn tag(&self) -> &'static str {
        self.inner.tag()
    }
    fn plan(
        &self,
        ctx: &ExplainContext<'_>,
        ws: &mut CoalitionWorkspace,
        block: &mut FusedBlock,
    ) -> Result<Box<dyn ExplainPlan>, XaiError> {
        if self.budget == PANICKING_COARSE_BUDGET {
            panic!("kernel-shap panics at its coarse budget");
        }
        if self.budget == FLAGGED_FULL_BUDGET && FULL_BUDGET_PANICS.load(Ordering::SeqCst) {
            FULL_BUDGET_PANICKED.fetch_add(1, Ordering::SeqCst);
            panic!("kernel-shap panics at its full budget");
        }
        self.inner.plan(ctx, ws, block)
    }
}

fn shadow_kernel_shap() {
    static SHADOW: Once = Once::new();
    SHADOW.call_once(|| {
        let registry = MethodRegistry::global();
        let builtin = registry.get_by_name("kernel-shap").expect("built in");
        registry.register("kernel-shap", move |cfg| {
            Ok(Box::new(Faulty {
                inner: builtin.instantiate(cfg)?,
                budget: cfg.budget,
            }))
        });
    });
}

/// A plug-in whose explanation blocks until the test releases it.
struct Plug {
    entered: Sender<()>,
    release: Receiver<()>,
}

impl Explainer for Plug {
    fn tag(&self) -> &'static str {
        "plug"
    }
    fn plan(
        &self,
        _ctx: &ExplainContext<'_>,
        _ws: &mut CoalitionWorkspace,
        _block: &mut FusedBlock,
    ) -> Result<Box<dyn ExplainPlan>, XaiError> {
        Err(XaiError::Input("plug runs alone".into()))
    }
    fn direct(
        &self,
        ctx: &ExplainContext<'_>,
        _ws: &mut CoalitionWorkspace,
    ) -> Result<Attribution, XaiError> {
        let _ = self.entered.send(());
        let _ = self.release.recv();
        let base = ctx.base_value();
        Ok(Attribution {
            names: ctx.names.into(),
            values: vec![0.0; ctx.x.len()],
            base_value: base,
            prediction: base,
            method: "plug".into(),
        })
    }
}

type Outcome = Result<ExplainResponse, ServeError>;

/// One `explain` on its own thread.
struct Call {
    answer: Receiver<Outcome>,
    started: Instant,
}

fn call(engine: &Arc<ServeEngine>, request: ExplainRequest) -> Call {
    let (tx, answer) = crossbeam::channel::bounded(1);
    let engine = Arc::clone(engine);
    std::thread::spawn(move || {
        let _ = tx.send(engine.explain(request));
    });
    Call {
        answer,
        started: Instant::now(),
    }
}

impl Call {
    /// The answer and how long the call took to return it, or `None` when
    /// the caller's thread unwound. Fails after 10 s.
    fn settle(self) -> Option<(Outcome, Duration)> {
        match self.answer.recv_timeout(Duration::from_secs(10)) {
            Ok(outcome) => Some((outcome, self.started.elapsed())),
            Err(RecvTimeoutError::Disconnected) => None,
            Err(RecvTimeoutError::Timeout) => panic!("the engine did not answer within 10 s"),
        }
    }

    fn answer(self) -> Outcome {
        self.settle().expect("no caller thread unwinds").0
    }
}

fn kernel(x: &[f64], n_coalitions: usize, budget: Duration) -> ExplainRequest {
    ExplainRequest {
        model_id: "m".into(),
        features: x.to_vec(),
        method: ExplainMethod::KernelShap { n_coalitions },
        budget,
    }
}

fn registered(config: ServeConfig) -> (Arc<ServeEngine>, SynthData) {
    shadow_kernel_shap();
    let synth = friedman1(300, 5, 0.1, 53).unwrap();
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
    let engine = Arc::new(ServeEngine::start(config));
    engine
        .registry()
        .register("m", ServeModel::Gbdt(model), synth.data.names.clone(), bg)
        .unwrap();
    (engine, synth)
}

fn one_worker_one_slot() -> (Arc<ServeEngine>, SynthData) {
    registered(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    })
}

/// Holds the only worker with a plug request (registered as `plug_name`)
/// and fills the one queue slot with a TreeSHAP request on `row`. Sending
/// on the returned channel releases the plug; both calls are returned.
fn hold_and_fill(
    engine: &Arc<ServeEngine>,
    plug_name: &str,
    row: &[f64],
) -> (Sender<()>, [Call; 2]) {
    let (entered_tx, entered_rx) = crossbeam::channel::bounded(1);
    let (release_tx, release_rx) = crossbeam::channel::bounded(1);
    MethodRegistry::global().register(plug_name, move |_cfg| {
        Ok(Box::new(Plug {
            entered: entered_tx.clone(),
            release: release_rx.clone(),
        }))
    });
    let at = |method| ExplainRequest {
        model_id: "m".into(),
        features: row.to_vec(),
        method,
        budget: Duration::from_secs(60),
    };
    let plug = call(engine, at(ExplainMethod::custom(plug_name, 1)));
    entered_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the worker reaches the plug");
    let filler = call(engine, at(ExplainMethod::TreeShap));
    let deadline = Instant::now() + Duration::from_secs(10);
    while engine.queue_len() < 1 {
        assert!(Instant::now() < deadline, "the filler never queued");
        std::thread::yield_now();
    }
    (release_tx, [plug, filler])
}

fn release(plug: Sender<()>, calls: [Call; 2]) {
    plug.send(()).expect("the plug is waiting");
    for c in calls {
        c.answer().expect("plug and filler are served");
    }
}

/// (a) The inline coarse compute panics. No caller unwinds: each degraded
/// call answers `Internal` and counts as an explain error, and its
/// single-flight entry is released, so an identical retry with a 300 ms
/// budget is served at once instead of waiting out the budget behind it.
#[test]
fn a_panicking_coarse_compute_answers_internal_and_leaves_no_flight() {
    let (engine, synth) = one_worker_one_slot();
    let (plug, held) = hold_and_fill(&engine, "plug-for-coarse-panics", synth.data.row(0));
    let rows = 1..=8;
    let flood: Vec<Call> = rows
        .clone()
        .map(|i| {
            call(
                &engine,
                kernel(synth.data.row(i), 512, Duration::from_secs(10)),
            )
        })
        .collect();
    for (i, c) in rows.clone().zip(flood) {
        match c.answer() {
            Err(ServeError::Internal(_)) => {}
            other => panic!("row {i}: a panicking coarse compute answers Internal, got {other:?}"),
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.explain_errors, 8, "{stats:?}");
    assert_eq!(stats.degraded_served, 0, "{stats:?}");
    release(plug, held);

    // Teach admission the full-budget class cost on another row, so the
    // retries' feasibility is priced from KernelSHAP, not from the plug.
    let warm = call(
        &engine,
        kernel(synth.data.row(20), 512, Duration::from_secs(10)),
    );
    warm.answer().expect("a full-budget request is served");
    for i in rows {
        let retry = call(
            &engine,
            kernel(synth.data.row(i), 512, Duration::from_millis(300)),
        );
        let (outcome, took) = retry.settle().expect("no caller thread unwinds");
        let resp = outcome.unwrap_or_else(|e| panic!("row {i}: retry answered {e:?}"));
        assert_eq!(resp.fidelity, Fidelity::Exact, "row {i}");
        assert!(
            took < Duration::from_millis(150),
            "row {i}: the retry took {took:?} of its 300 ms"
        );
    }
}

/// (b) The full-budget compute panics while a flag is set: the keys the
/// flood degraded ask for their refinement, which panics on the worker.
/// Once the flag clears, every one of them reads `Exact` within 10 s, and
/// bit for bit what an engine that never degraded answers.
#[test]
fn refinements_survive_a_full_budget_panic_and_heal_once_it_stops() {
    let (engine, synth) = one_worker_one_slot();
    let rows = 1..=8;
    let at = |i: usize| kernel(synth.data.row(i), 256, Duration::from_secs(10));
    let coarse = Fidelity::Coarse {
        sample_budget: FLAGGED_FULL_BUDGET / DEFAULT_ANYTIME_DIVISOR,
    };
    FULL_BUDGET_PANICS.store(true, Ordering::SeqCst);
    let (plug, held) = hold_and_fill(&engine, "plug-for-full-panics", synth.data.row(0));
    let flood: Vec<Call> = rows.clone().map(|i| call(&engine, at(i))).collect();
    for (i, c) in rows.clone().zip(flood) {
        let resp = c.answer().unwrap_or_else(|e| panic!("row {i}: {e:?}"));
        assert_eq!(resp.fidelity, coarse, "row {i}");
    }
    release(plug, held);

    // Each poll is a coarse hit that asks for the key's refinement.
    for i in rows.clone() {
        let resp = call(&engine, at(i)).answer().unwrap();
        assert_eq!(resp.fidelity, coarse, "row {i}: no refinement can land yet");
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while FULL_BUDGET_PANICKED.load(Ordering::SeqCst) == 0 {
        assert!(
            Instant::now() < deadline,
            "no refinement ran: {:?}",
            engine.stats()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    FULL_BUDGET_PANICS.store(false, Ordering::SeqCst);

    let deadline = Instant::now() + Duration::from_secs(10);
    let mut upgraded = Vec::new();
    for i in rows {
        loop {
            let resp = call(&engine, at(i)).answer().unwrap();
            if resp.fidelity == Fidelity::Exact {
                upgraded.push((i, resp.attribution));
                break;
            }
            assert!(
                Instant::now() < deadline,
                "row {i} still reads {:?} 10 s after the panics stopped: {:?}",
                resp.fidelity,
                engine.stats()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let stats = engine.stats();
    assert!(stats.refined_entries >= 1, "{stats:?}");
    assert!(
        stats.explain_errors >= 1,
        "the worker counted the panic: {stats:?}"
    );

    let (calm, _) = registered(ServeConfig::default());
    for (i, up) in upgraded {
        let full = call(&calm, at(i)).answer().unwrap();
        assert!(full.fidelity.is_exact());
        let bits = |a: &Attribution| -> Vec<u64> {
            let mut bits: Vec<u64> = a.values.iter().map(|v| v.to_bits()).collect();
            bits.extend([a.base_value.to_bits(), a.prediction.to_bits()]);
            bits
        };
        assert_eq!(
            bits(&up),
            bits(&full.attribution),
            "row {i}: the refined entry equals the never-degraded answer"
        );
    }
}
