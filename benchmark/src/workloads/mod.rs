//! The four workloads behind one interface, so `main` drives set-up,
//! timed phase, verification and trace identically for all of them.

pub mod cold_mixed;
pub mod hot_zipf;
pub mod pipeline_retrain;
pub mod wire_mixed;

use crate::measure::Phase;
use crate::trace::{Replayer, Tracer};
use nfv_serve::prelude::*;

/// Requests in the fixed verification sample of every workload.
pub const VERIFY_SAMPLE: u64 = 256;

/// What a run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    /// 1 % of the ops on shrunken fixtures; all verification stays on.
    pub smoke: bool,
}

impl RunConfig {
    /// `full`, or `small` on a smoke run.
    pub fn pick<T>(&self, full: T, small: T) -> T {
        if self.smoke {
            small
        } else {
            full
        }
    }
}

pub trait Workload: Sized {
    /// Everything before the first timed op: dataset, model fit,
    /// engine/server start, registration, cache warm, reference answers.
    fn setup(run: &RunConfig, tracer: &mut Tracer) -> Result<Self, String>;

    /// One closed-loop phase of about `seconds`. With a tracer the phase
    /// records a span per op (adopted into the tracer by the workload).
    fn timed(&mut self, seconds: f64, tracer: Option<&mut Tracer>) -> Phase;

    /// Checks the fixed verification sample, outside any timed phase.
    /// Returns how many answers were checked.
    fn verify(&mut self) -> Result<u64, String>;

    /// The serving engine's counters (over the wire for `wire_mixed`).
    fn stats(&mut self) -> Result<ServeStats, String>;

    /// A registry holding the model the workload serves, the engine
    /// configuration it serves under, and the request behind a traced op
    /// id — what the layer replay needs.
    fn registry(&self) -> &ModelRegistry;
    fn serve_config(&self) -> ServeConfig;
    fn request_for(&self, op_id: u64) -> Option<ExplainRequest>;

    /// Brings the replay's own cache to the state the engine's cache is in
    /// during the timed phase. Nothing to do where every op is a miss.
    fn prime_replay(&self, _replayer: &mut Replayer) {}

    /// Stops everything the set-up started and waits for it.
    fn shutdown(self) -> Result<(), String>;
}

/// An answer counts only if it is the exact, full-budget one.
pub fn exact_answer(response: Result<ExplainResponse, ServeError>) -> Option<ExplainResponse> {
    response.ok().filter(|r| r.fidelity.is_exact())
}
