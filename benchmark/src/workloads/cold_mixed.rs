//! `cold_mixed`: in-process engine, two callers, every op a never-seen
//! key, six methods in rotation. The explainers and tree traversal do
//! nearly all the work, two concurrent callers make fusion fire, and every
//! op is a cache write — the write-side twin of `hot_zipf`.

use super::{exact_answer, RunConfig, Workload, VERIFY_SAMPLE};
use crate::fixture::{is_shapley, same_bits, Fixture, TIMED_BASE, VERIFY_BASE, WARM_BASE};
use crate::measure::{closed_loop, Phase};
use crate::trace::{Replayer, Tracer};
use nfv_serve::prelude::*;
use nfv_xai::prelude::Attribution;
use std::sync::Arc;

const CALLERS: usize = 2;
/// Ops per caller per segment: a multiple of the method cycle, ~0.3 s.
const SEGMENT_OPS: u64 = 120;
/// Warm-up ops per caller: lets kernel calibration and the admission
/// EWMAs settle before anything is timed.
const WARM_OPS: u64 = 600;

pub struct ColdMixed {
    fx: Fixture,
    engine: Engine,
    reference: Vec<Arc<Attribution>>,
    segment_ops: u64,
    next_base: u64,
}

/// The serving configuration of the mixed workloads: all defaults, the
/// run seed mixed into every stochastic explainer's seed.
pub fn serve_config(run: &RunConfig) -> ServeConfig {
    ServeConfig {
        seed: run.seed,
        ..ServeConfig::default()
    }
}

/// Reference answers for the verification sample of the mixed trace,
/// computed by the layer replay (direct explainer calls with
/// content-derived seeds): what any engine with this seed must return.
pub fn reference_answers(
    fx: &Fixture,
    registry: &ModelRegistry,
    config: ServeConfig,
) -> Result<Vec<Arc<Attribution>>, String> {
    let mut replayer = Replayer::new(config);
    let mut off = Tracer::new(false);
    (0..VERIFY_SAMPLE)
        .map(|i| {
            let op = VERIFY_BASE + i;
            replayer
                .replay(registry, &fx.mixed_request(op), op, &mut off)
                .map(|(attr, _)| attr)
        })
        .collect()
}

/// Checks one verification answer of the mixed trace against its
/// reference: bit-identical, and efficient where the method promises it.
pub fn check_mixed(
    i: u64,
    method: ExplainMethod,
    got: &Attribution,
    want: &Attribution,
) -> Result<(), String> {
    if !same_bits(got, want) {
        return Err(format!(
            "answer {i} ({}) differs from its reference",
            method.tag()
        ));
    }
    if is_shapley(method) && got.efficiency_gap().abs() >= 1e-6 {
        return Err(format!(
            "answer {i} ({}) breaks efficiency: gap {:e}",
            method.tag(),
            got.efficiency_gap()
        ));
    }
    Ok(())
}

impl ColdMixed {
    fn mixed_phase(&self, seconds: f64, segment_ops: u64, base: u64, traced: bool) -> Phase {
        let (fx, engine) = (&self.fx, &self.engine);
        closed_loop(CALLERS, seconds, segment_ops, traced, |c| {
            move |i, log| {
                let op = base + i * CALLERS as u64 + c as u64;
                let request = fx.mixed_request(op);
                let answer = log.timed(op, || {
                    exact_answer(engine.explain(request)).filter(|r| !r.cache_hit)
                });
                if let Some(r) = answer {
                    log.queue_waited(r.queue_wait);
                }
            }
        })
    }
}

impl Workload for ColdMixed {
    fn setup(run: &RunConfig, tracer: &mut Tracer) -> Result<Self, String> {
        let fx = Fixture::build(run.seed, tracer)?;
        let config = serve_config(run);
        let engine = Engine::start(config);
        fx.register(engine.registry(), tracer)?;
        let reference = reference_answers(&fx, engine.registry(), config)?;
        let this = ColdMixed {
            fx,
            engine,
            reference,
            segment_ops: run.pick(SEGMENT_OPS, 12),
            next_base: TIMED_BASE,
        };
        let warm = this.mixed_phase(0.0, run.pick(WARM_OPS, 24), WARM_BASE, false);
        if warm.failed > 0 {
            return Err(format!("{} warm-up ops failed", warm.failed));
        }
        Ok(this)
    }

    fn timed(&mut self, seconds: f64, tracer: Option<&mut Tracer>) -> Phase {
        let phase = self.mixed_phase(seconds, self.segment_ops, self.next_base, tracer.is_some());
        self.next_base += phase.attempted;
        if let Some(tracer) = tracer {
            tracer.adopt("nfv-serve.engine_explain", &phase.spans, phase.started);
        }
        phase
    }

    fn verify(&mut self) -> Result<u64, String> {
        for (i, want) in self.reference.iter().enumerate() {
            let request = self.fx.mixed_request(VERIFY_BASE + i as u64);
            let method = request.method;
            let got = exact_answer(self.engine.explain(request))
                .filter(|r| !r.cache_hit)
                .ok_or_else(|| format!("verification request {i} was not answered exactly"))?;
            check_mixed(i as u64, method, &got.attribution, want)?;
        }
        Ok(self.reference.len() as u64)
    }

    fn stats(&mut self) -> Result<ServeStats, String> {
        Ok(self.engine.stats())
    }

    fn registry(&self) -> &ModelRegistry {
        self.engine.registry()
    }

    fn serve_config(&self) -> ServeConfig {
        *self.engine.config()
    }

    fn request_for(&self, op_id: u64) -> Option<ExplainRequest> {
        Some(self.fx.mixed_request(op_id))
    }

    fn shutdown(self) -> Result<(), String> {
        self.engine.shutdown();
        Ok(())
    }
}
