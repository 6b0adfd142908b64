//! Test support shared by the engine's integration binaries: a backlog
//! built the way production builds one.

use nfv_serve::prelude::*;
use nfv_xai::prelude::*;
use std::time::Duration;

/// A registry plug-in whose explanation blocks until the test releases it:
/// it occupies a worker the way any slow request does, for exactly as long
/// as the test needs a backlog to build behind it.
struct Plug {
    entered: crossbeam::channel::Sender<()>,
    release: crossbeam::channel::Receiver<()>,
}

impl Explainer for Plug {
    fn tag(&self) -> &'static str {
        "plug"
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
        Err(XaiError::Input("plug does not fuse".into()))
    }
    fn direct(
        &self,
        ctx: &ExplainContext<'_>,
        _ws: &mut CoalitionWorkspace,
    ) -> Result<Attribution, XaiError> {
        self.entered.send(()).expect("test is waiting for the plug");
        self.release.recv().expect("test releases the plug");
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

/// Serves `jobs` as one backlog, built the way production builds one:
/// a plug request (registered as `plug_name`, unique per test — the method
/// registry is process-global) holds the engine's only worker, every job
/// is submitted from its own thread, and the plug is released once all of
/// them are queued. The worker's next gather therefore finds them all
/// waiting. Returns the jobs' outcomes in submission order.
pub fn serve_as_backlog(
    engine: &ServeEngine,
    plug_name: &str,
    jobs: Vec<ExplainRequest>,
) -> Vec<Result<ExplainResponse, ServeError>> {
    assert_eq!(engine.config().workers, 1, "one worker to hold");
    let (entered_tx, entered_rx) = crossbeam::channel::bounded(1);
    let (release_tx, release_rx) = crossbeam::channel::bounded(1);
    MethodRegistry::global().register(plug_name, move |_cfg| {
        Ok(Box::new(Plug {
            entered: entered_tx.clone(),
            release: release_rx.clone(),
        }))
    });
    let plug = ExplainRequest {
        method: ExplainMethod::custom(plug_name, 1),
        budget: Duration::from_secs(60),
        ..jobs[0].clone()
    };
    let n = jobs.len();
    std::thread::scope(|s| {
        let plug = s.spawn(move || engine.explain(plug));
        entered_rx.recv().expect("the worker reaches the plug");
        let handles: Vec<_> = jobs
            .into_iter()
            .map(|job| s.spawn(move || engine.explain(job)))
            .collect();
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while engine.queue_len() < n {
            assert!(
                std::time::Instant::now() < deadline,
                "only {} of {n} jobs queued behind the plug",
                engine.queue_len()
            );
            std::thread::yield_now();
        }
        release_tx.send(()).expect("the plug is waiting");
        plug.join().unwrap().expect("plug request served");
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}
